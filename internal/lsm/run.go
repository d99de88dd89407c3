package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// A run is an immutable sorted sequence of key/value entries, serialized as
// one chunk payload. Tombstones (deletions) are entries with a sentinel
// value length so they shadow older runs until a full compaction drops them.

const tombstoneLen = 0xFFFFFFFF

// Entry is one key/value pair in a run or memtable.
type Entry struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// ErrCorruptRun is returned when run bytes fail to decode.
var ErrCorruptRun = errors.New("lsm: corrupt run")

// encodeRun serializes entries (which must be sorted by key).
func encodeRun(entries []Entry) []byte {
	size := 4
	for _, e := range entries {
		size += 2 + len(e.Key) + 4 + len(e.Value)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		if e.Tombstone {
			buf = binary.BigEndian.AppendUint32(buf, tombstoneLen)
			continue
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

// decodeRun parses run bytes. It is written defensively — on-disk data is
// untrusted (§7: deserializers must never panic on corrupt input).
func decodeRun(buf []byte) ([]Entry, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short header", ErrCorruptRun)
	}
	count := int(binary.BigEndian.Uint32(buf[:4]))
	pos := 4
	if count < 0 || count > len(buf) {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorruptRun, count)
	}
	entries := make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("%w: truncated key length", ErrCorruptRun)
		}
		klen := int(binary.BigEndian.Uint16(buf[pos : pos+2]))
		pos += 2
		if pos+klen+4 > len(buf) {
			return nil, fmt.Errorf("%w: truncated key/value length", ErrCorruptRun)
		}
		key := string(buf[pos : pos+klen])
		pos += klen
		vlen := binary.BigEndian.Uint32(buf[pos : pos+4])
		pos += 4
		if vlen == tombstoneLen {
			entries = append(entries, Entry{Key: key, Tombstone: true})
			continue
		}
		if vlen > uint32(len(buf)-pos) {
			return nil, fmt.Errorf("%w: truncated value", ErrCorruptRun)
		}
		entries = append(entries, Entry{Key: key, Value: append([]byte(nil), buf[pos:pos+int(vlen)]...)})
		pos += int(vlen)
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key }) {
		return nil, fmt.Errorf("%w: entries out of order", ErrCorruptRun)
	}
	return entries, nil
}

// searchRun finds key in sorted entries.
func searchRun(entries []Entry, key string) (Entry, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Key >= key })
	if i < len(entries) && entries[i].Key == key {
		return entries[i], true
	}
	return Entry{}, false
}

// mergeRuns merges runs ordered newest first into a single sorted entry list
// with newest-wins semantics. Deletion markers are kept: only the caller
// knows whether a deeper level remains for them to mask.
func mergeRuns(runs [][]Entry) []Entry {
	latest := make(map[string]Entry)
	order := make([]string, 0)
	for _, run := range runs { // newest first: first writer wins
		for _, e := range run {
			if _, seen := latest[e.Key]; !seen {
				latest[e.Key] = e
				order = append(order, e.Key)
			}
		}
	}
	sort.Strings(order)
	out := make([]Entry, 0, len(order))
	for _, k := range order {
		out = append(out, latest[k])
	}
	return out
}

// DecodeRunForTest exposes decodeRun to the serialization-robustness
// property tests (§7).
func DecodeRunForTest(buf []byte) ([]Entry, error) { return decodeRun(buf) }

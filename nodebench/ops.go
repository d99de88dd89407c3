package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// opKind is one client call.
type opKind uint8

const (
	opPutDurable opKind = iota // rpc PutDurable: acknowledged once persistent
	opPut                      // rpc Put: acknowledged once readable
	opGet
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"put_durable", "put", "get", "scan"}

func (k opKind) String() string { return opNames[k] }

// op is one generated client call on the global key index key.
type op struct {
	kind opKind
	key  int
}

// scanLimit is the page size of every Scan in the read-mostly mix.
const scanLimit = 16

// mix is a workload's op mix over one client's key partition.
type mix struct {
	durable bool    // puts are PutDurable
	getPct  int     // percent of ops that are Get
	scanPct int     // percent of ops that are Scan; the rest are puts
	zipfS   float64 // Zipf exponent of key choice; 0 = uniform
}

var (
	putDurableMix = mix{durable: true}
	readMostlyMix = mix{getPct: 90, scanPct: 5, zipfS: 1.1}
)

// splitmix derives independent 64-bit streams from (seed, lane), so every
// client's op sequence, every value's filler and the crash tear all follow
// from the one benchmark seed.
func splitmix(seed int64, lane uint64) int64 {
	z := uint64(seed) + lane*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// gen produces one client's op sequence. Client c of n owns the global key
// indices congruent to c mod n, so no two clients ever write the same key
// and each knows every version its keys can hold.
type gen struct {
	m       mix
	client  int
	clients int
	perCli  int
	rng     *rand.Rand
	zipf    *rand.Zipf
}

func newGen(m mix, seed int64, client, clients, keys int) *gen {
	g := &gen{
		m:       m,
		client:  client,
		clients: clients,
		perCli:  keys / clients,
		rng:     rand.New(rand.NewSource(splitmix(seed, uint64(client)+1))),
	}
	if m.zipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, m.zipfS, 1, uint64(g.perCli-1))
	}
	return g
}

func (g *gen) next() op {
	kind := opPut
	if g.m.durable {
		kind = opPutDurable
	}
	if g.m.getPct+g.m.scanPct > 0 {
		switch r := g.rng.Intn(100); {
		case r < g.m.getPct:
			kind = opGet
		case r < g.m.getPct+g.m.scanPct:
			kind = opScan
		}
	}
	var rank int
	if g.zipf != nil {
		rank = int(g.zipf.Uint64())
	} else {
		rank = g.rng.Intn(g.perCli)
	}
	return op{kind: kind, key: g.client + g.clients*rank}
}

// keyName is the shard id of global key index i; the fixed width makes key
// order equal index order, so a scan's expected entries are consecutive
// indices.
func keyName(i int) string { return fmt.Sprintf("k%07d", i) }

// Value layout (little endian), size >= valueHeader+keyLen+4:
//
//	[0:8)   version
//	[8:10)  writing client
//	[10:12) key length
//	[12:..) key
//	...     filler derived from (seed, key, version)
//	[n-4:n) CRC-32 (IEEE) of everything before it
const valueHeader = 12

// encodeValue fills buf with the self-describing value of (key, version).
func encodeValue(buf []byte, seed int64, key string, client int, version uint64) {
	n := len(buf)
	binary.LittleEndian.PutUint64(buf[0:], version)
	binary.LittleEndian.PutUint16(buf[8:], uint16(client))
	binary.LittleEndian.PutUint16(buf[10:], uint16(len(key)))
	copy(buf[valueHeader:], key)
	x := uint64(splitmix(seed, version)) ^ uint64(crc32.ChecksumIEEE([]byte(key)))<<32 | 1
	for i := valueHeader + len(key); i < n-4; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	binary.LittleEndian.PutUint32(buf[n-4:], crc32.ChecksumIEEE(buf[:n-4]))
}

var errBadValue = errors.New("value check failed")

// decodeValue checks v's checksum and that it belongs to key, returning the
// version it carries.
func decodeValue(v []byte, key string) (uint64, error) {
	n := len(v)
	if n < valueHeader+len(key)+4 {
		return 0, fmt.Errorf("%w: %q: %d bytes", errBadValue, key, n)
	}
	if crc32.ChecksumIEEE(v[:n-4]) != binary.LittleEndian.Uint32(v[n-4:]) {
		return 0, fmt.Errorf("%w: %q: checksum mismatch", errBadValue, key)
	}
	kl := int(binary.LittleEndian.Uint16(v[10:]))
	if kl != len(key) || string(v[valueHeader:valueHeader+kl]) != key {
		return 0, fmt.Errorf("%w: %q: value belongs to another key", errBadValue, key)
	}
	return binary.LittleEndian.Uint64(v[0:]), nil
}

// keyState is what a key's owning client knows: the last acknowledged
// version and the last attempted one. A failed put leaves the key holding
// either, so a read must return a version in [acked, tried].
type keyState struct {
	acked, tried uint64
}

func (s keyState) admits(v uint64) bool { return v >= s.acked && v <= s.tried }

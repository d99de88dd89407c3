// Snapshot-consistent range scans over the tree: one merged, ordered view of
// memtable + flushing generation + every on-disk run, pinned against
// concurrent flush/compaction by the manifest generation. The scan snapshots
// the run list under t.mu, loads every run, then re-checks the generation:
// if a flush or compaction published a new generation mid-load, the view may
// straddle the swap (some runs read pre-swap, some post-swap), so the scan
// discards it and re-snapshots. Loaded entry slices are immutable once
// decoded, so a view whose generation re-check passes is a true snapshot.
package lsm

import (
	"sort"

	"shardstore/internal/faults"
	"shardstore/internal/vsync"
)

// maxScanAttempts bounds the optimistic snapshot loop before the scan falls
// back to serializing against the run-list mutators.
const maxScanAttempts = 4

// Scan returns the live entries in [start, end) in ascending key order,
// newest version of each key, tombstones elided. An empty end means
// unbounded; limit <= 0 means unbounded. more reports that entries beyond
// the limit remain in range — resume with start = lastKey + "\x00".
func (t *Tree) Scan(start, end string, limit int) ([]Entry, bool, error) {
	opStart := t.obs.Now()
	t.met.scans.Inc()
	for attempt := 0; attempt < maxScanAttempts; attempt++ {
		view, gen, torn, err := t.scanView()
		if err != nil {
			// A run vanished mid-load (compaction swapped it out and
			// reclamation got there first): the generation moved, take a
			// fresh snapshot.
			t.cov.Hit("lsm.scan.load_retry")
			vsync.Yield()
			continue
		}
		if !torn && t.ManifestGen() != gen {
			// Torn snapshot: a flush/compaction published a new generation
			// while runs were loading. Discard and retry.
			t.cov.Hit("lsm.scan.gen_retry")
			vsync.Yield()
			continue
		}
		out, more := collectRange(view, start, end, limit)
		t.met.scanEntries.Add(uint64(len(out)))
		t.met.scanLat.Observe(t.obs.Now() - opStart)
		if t.obs.Tracing() {
			t.obs.Record("lsm", "scan", start, "ok", t.obs.Now()-opStart)
		}
		return out, more, nil
	}
	// The optimistic loop kept losing to concurrent run-list churn: take the
	// mutator locks (flushMu before compactMu, the tree's lock order) so the
	// run list holds still for one authoritative pass.
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.cov.Hit("lsm.scan.stable_fallback")
	view, _, _, err := t.scanView()
	if err != nil {
		return nil, false, err
	}
	out, more := collectRange(view, start, end, limit)
	t.met.scanEntries.Add(uint64(len(out)))
	t.met.scanLat.Observe(t.obs.Now() - opStart)
	return out, more, nil
}

// scanView snapshots the tree and loads one merged newest-wins view
// (tombstones retained). It returns the manifest generation the snapshot was
// taken under; the caller decides whether a generation drift voids the view.
// torn reports that the seeded FaultScanTornLevelSwap composed the view from
// mixed generations, in which case the generation re-check must be skipped —
// that skip is exactly the seeded defect.
func (t *Tree) scanView() ([]Entry, uint64, bool, error) {
	t.mu.Lock()
	gen := t.manifestGen
	runs := append([]runRef(nil), t.runs...)
	overlay := make(map[string]memEntry, len(t.mem)+len(t.flushing))
	for k, e := range t.flushing {
		overlay[k] = e
	}
	for k, e := range t.mem {
		overlay[k] = e
	}
	torn := t.bugs.Enabled(faults.FaultScanTornLevelSwap) && t.staleRuns != nil
	if torn {
		// Seeded fault: the deep levels come from the pre-swap run list while
		// L0 comes from the current one — the mid-swap level set a correct
		// iterator must never observe. Keys whose newest version crossed the
		// swap boundary vanish or resurrect relative to point gets.
		composed := make([]runRef, 0, len(runs)+len(t.staleRuns))
		for _, r := range runs {
			if r.level == 0 {
				composed = append(composed, r)
			}
		}
		for _, r := range t.staleRuns {
			if r.level >= 1 {
				composed = append(composed, r)
			}
		}
		runs = composed
		t.cov.Hit("lsm.scan.torn_view")
	}
	t.mu.Unlock()

	// The overlay is the newest data; mergeRuns is newest-first, so it leads.
	memRun := make([]Entry, 0, len(overlay))
	for k, e := range overlay {
		memRun = append(memRun, Entry{Key: k, Value: e.value, Tombstone: e.tombstone})
	}
	sort.Slice(memRun, func(i, j int) bool { return memRun[i].Key < memRun[j].Key })
	loaded := make([][]Entry, 0, len(runs)+1)
	loaded = append(loaded, memRun)
	for _, r := range runs {
		entries, err := t.loadRun(r)
		if err != nil {
			if torn {
				// A stale pre-swap run may already be reclaimed; the defect
				// path drops it silently (part of the torn observation).
				continue
			}
			return nil, gen, false, err
		}
		loaded = append(loaded, entries)
	}
	return mergeRuns(loaded), gen, torn, nil
}

// collectRange filters a merged view down to the live entries of
// [start, end), applying the limit. Values are copied: run-cache and
// memtable slices must not escape to callers.
func collectRange(view []Entry, start, end string, limit int) ([]Entry, bool) {
	out := make([]Entry, 0)
	for _, e := range view {
		if e.Key < start {
			continue
		}
		if end != "" && e.Key >= end {
			break
		}
		if e.Tombstone {
			continue
		}
		if limit > 0 && len(out) >= limit {
			return out, true
		}
		out = append(out, Entry{Key: e.Key, Value: append([]byte(nil), e.Value...)})
	}
	return out, false
}

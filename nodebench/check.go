package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"shardstore/internal/core"
	"shardstore/internal/coverage"
	"shardstore/internal/store"
)

const (
	// checkBatch is the case count of one conformance run.
	checkBatch = 64
	// checkWorkers is the harness's worker-pool width.
	checkWorkers = 2
	// checkWarmup is the case count of each set-up run.
	checkWarmup = 256
)

// checkConfig is the all-features deployment check: crashes, reboots, IO
// failures, control plane, scrub, group commit, compaction and scan.
func checkConfig(seed int64, cases int, cov *coverage.Registry) core.Config {
	return core.Config{
		Seed:               seed,
		Cases:              cases,
		Bias:               core.DefaultBias(),
		StoreConfig:        store.Config{Coverage: cov},
		EnableCrashes:      true,
		EnableReboots:      true,
		EnableFailures:     true,
		EnableControlPlane: true,
		EnableScrub:        true,
		EnableGroupCommit:  true,
		EnableCompaction:   true,
		EnableScan:         true,
		Minimize:           true,
		Workers:            checkWorkers,
	}
}

// runCheck runs fixed-size conformance batches until the time is up. Batch
// b checks the cases of seed splitmix(seed, b); a violation fails its batch's
// first failing case and the run's output check. The per-case work figures
// come from batch 0 alone, so they depend on the seed and nothing else.
func runCheck(o options) (*result, error) {
	r := &result{correct: true}
	runs := setupRuns
	if o.trace {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		quiesceHeap()
		t0 := time.Now()
		res := core.Run(checkConfig(splitmix(o.seed, 1<<32), checkWarmup, nil))
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if res.Failure != nil {
			return nil, fmt.Errorf("set-up check: case %d: %v", res.Failure.Case, res.Failure.Err)
		}
	}

	var okCases atomic.Uint64
	met := startMeter(okCases.Load, 0)
	start := time.Now()
	var seg *segments
	var tr *tracer
	if o.trace {
		seg = newSegments(checkBatch, start)
		tr = newTracer(start, 0)
	}
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		cov := coverage.NewRegistry()
		t0 := time.Now()
		res := core.Run(checkConfig(splitmix(o.seed, uint64(b)), checkBatch, cov))
		t1 := time.Now()
		if seg.traced(uint64(r.attempted)) {
			id := tr.id()
			tr.add(id, 0, id, "core.run", t0, t1)
		}
		r.attempted += res.Cases
		if b == 0 {
			r.opsPerCase = float64(res.Ops) / float64(res.Cases)
			r.crashesPerCase = float64(res.Crashes) / float64(res.Cases)
			for _, n := range cov.Snapshot() {
				if n > 0 {
					r.probesHit++
				}
			}
		}
		if f := res.Failure; f != nil {
			r.failed++
			err := fmt.Errorf("%w: conformance violation at case %d of batch %d (seed %d): %v", errBadValue, f.Case, b, f.Seed, f.MinimizedErr)
			r.fails.add(err)
			if len(r.problems) < maxProblems {
				r.problems = append(r.problems, err.Error())
			}
		}
		seg.completed(uint64(r.attempted), t1)
		okCases.Store(uint64(r.attempted - r.failed))
	}
	r.elapsed = time.Since(start)
	r.windows, r.heap = met.end()
	r.succeeded = r.attempted - r.failed
	r.segRatios = seg.ratios()
	if tr != nil {
		r.spans = tr.spans
	}
	r.correct = r.failed == 0
	return r, nil
}

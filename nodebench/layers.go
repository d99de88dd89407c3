package main

import (
	"time"
)

// div is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd is what a user of the node or of the check sees. On the check
// workload an op is one conformance case. ops_s counts successful ops over
// the whole measured run. The per-op costs are per successful op, as the
// median over the run's windows (512 successful ops each on the node
// workloads, one for the whole check run): the work spent on failed calls
// in a window is charged to its useful ones, so a node that fails fast
// does not look cheap.
func endToEnd(r *result) []metric {
	return []metric{
		{"setup_s", median(r.setup), "s"},
		{"ops_s", opsRate(r), "1/s"},
		{"cpu_us_per_op", perOpMedian(r.windows, func(w window) float64 { return us(w.cpu) }), "us"},
		{"alloc_b_per_op", perOpMedian(r.windows, func(w window) float64 { return float64(w.alloc) }), "B"},
		{"heap_peak_mb", heapPeak(r.heap) / 1e6, "MB"},
	}
}

// opsRate is successful ops per second over the measured run.
func opsRate(r *result) float64 { return div(float64(r.succeeded), r.elapsed.Seconds()) }

// perLayer breaks a traced run down by layer. Counters and histograms are
// deltas of the node registry over the measured window; *_call_us and the
// maintenance figures come from the run's spans. A metric of a layer the
// workload does not exercise reads 0; a percentile that cannot be resolved
// (fewer than ten samples beyond it, or it falls on failed calls) reads -1.
func perLayer(r *result) []metric {
	c := func(name string) float64 { return float64(r.delta.Counters[name]) }
	// hraw is a registry histogram's mean over the window; hmean is that of
	// a latency histogram in µs (the node registry's clock counts ns).
	hraw := func(name string) float64 {
		h := r.delta.Histograms[name]
		return div(float64(h.Sum), float64(h.Count))
	}
	hmean := func(name string) float64 { return hraw(name) / 1e3 }
	hsum := func(names ...string) (sum, count float64) {
		for _, name := range names {
			h := r.delta.Histograms[name]
			sum += float64(h.Sum)
			count += float64(h.Count)
		}
		return sum, count
	}
	spans := selfTimes(r.spans)
	// call is the mean duration of one maintenance call, from its spans.
	call := func(which int) float64 {
		t := spans[maintNames[which]]
		return div(float64(t.total)/1e3, float64(t.n))
	}
	tick := spans["maint.tick"]

	ops := float64(r.attempted)
	puts := float64(r.putsAck)
	userB := float64(r.bytesAck)
	var put timing
	put.merge(&r.timings[opPutDurable])
	put.merge(&r.timings[opPut])
	get, scan := &r.timings[opGet], &r.timings[opScan]
	gets := float64(get.attempted)

	var all timing
	for k := range r.timings {
		all.merge(&r.timings[k])
	}
	// The server's histograms observe every request, failed ones too, so
	// the client side is averaged over every attempt as well.
	clientUs := all.meanUs()
	srvSum, srvN := hsum("rpc.put_lat", "rpc.get_lat", "rpc.scan_lat")

	var freeMin float64
	if r.node {
		freeMin = float64(r.freeMin)
	}
	tried := c("chunk.reclaims") + c("chunk.reclaim_aborts")
	compacts := c("compact.steps") + c("compact.aborts")

	return []metric{
		// End-to-end figures whose meaning is specific to the node workloads.
		{"put_p50_us", put.quantileUs(0.50), "us"},
		{"put_p99_us", put.quantileUs(0.99), "us"},
		{"put_n", float64(put.attempted), "count"},
		{"get_p50_us", get.quantileUs(0.50), "us"},
		{"get_p99_us", get.quantileUs(0.99), "us"},
		{"get_n", gets, "count"},
		{"scan_p50_us", scan.quantileUs(0.50), "us"},
		{"scan_p99_us", scan.quantileUs(0.99), "us"},
		{"scan_n", float64(scan.attempted), "count"},
		{"fail_frac", div(float64(r.failed), ops), "ratio"},
		{"fail.no_space", float64(r.fails.n[causeNoSpace]), "count"},
		{"fail.dep_blocked", float64(r.fails.n[causeBlocked]), "count"},
		{"fail.other", float64(r.fails.n[causeOther]), "count"},
		{"fail.check", float64(r.fails.n[causeCheck]), "count"},
		{"syncs_per_put", div(c("disk.syncs"), puts), "1/put"},
		{"write_amp", div(c("disk.bytes_written"), userB), "B/B"},
		{"space_amp", div(median(r.usedEnd), float64(r.liveBytes)), "B/B"},
		{"check_cases_s", checkRate(r), "1/s"},
		{"trace.overhead_frac", overheadOf(r.segRatios), "ratio"},

		{"rpc.client_us", clientUs, "us"},
		{"rpc.self_us", clientUs - div(srvSum, srvN)/1e3, "us"},
		{"rpc.bytes_per_op", div(c("rpc.bytes_in")+c("rpc.bytes_out"), ops), "B"},
		{"rpc.pipeline_depth_mean", hraw("rpc.pipeline_depth"), "count"},
		{"rpc.failures_per_kop", div(c("rpc.failures")*1000, ops), "1/kop"},

		{"store.put_us", hmean("store.put_lat"), "us"},
		{"store.get_us", hmean("store.get_lat"), "us"},
		{"store.scan_us", hmean("store.scan_lat"), "us"},
		{"store.scan_entries_per_scan", div(c("store.scan_entries"), c("store.scans")), "count"},
		{"store.errors_per_kop", div((c("store.put_errors")+c("store.get_errors")+c("store.scan_errors"))*1000, ops), "1/kop"},
		{"store.open_ms", median(r.dur.openMs), "ms"},

		{"lsm.flushes_per_put", div(c("lsm.flushes"), puts), "1/put"},
		{"lsm.flush_us", hmean("lsm.flush_dur"), "us"},
		{"lsm.flush_call_us", call(mFlushIndex), "us"},
		{"lsm.runs_probed_per_get", div(c("lsm.runs_probed"), c("lsm.gets")), "count"},
		{"lsm.runs_end", median(r.runsEnd), "count"},
		{"lsm.levels_end", median(r.levelsEnd), "count"},
		{"lsm.scan_us", hmean("lsm.scan_lat"), "us"},

		{"chunk.puts_per_put", div(c("chunk.puts"), puts), "1/put"},
		{"chunk.put_us", hmean("chunk.put_lat"), "us"},
		{"chunk.get_us", hmean("chunk.get_lat"), "us"},
		{"chunk.reclaims_per_kput", div(c("chunk.reclaims")*1000, puts), "1/kput"},
		{"chunk.evacuated_bytes_per_user_byte", div(c("chunk.bytes_evacuated"), userB), "B/B"},
		{"chunk.reclaim_us", hmean("chunk.reclaim_dur"), "us"},
		{"chunk.reclaim_call_us", call(mReclaim), "us"},
		{"chunk.reclaim_abort_ratio", div(c("chunk.reclaim_aborts"), tried), "ratio"},
		{"chunk.no_space_errors", float64(r.fails.n[causeNoSpace]), "count"},

		{"buffercache.hit_ratio", div(c("cache.hits"), c("cache.hits")+c("cache.misses")), "ratio"},
		{"buffercache.evictions_per_get", div(c("cache.evictions"), gets), "1/get"},
		{"buffercache.inserts_per_get", div(c("cache.inserts"), gets), "1/get"},

		{"dep.syncs_per_put", div(c("sched.syncs"), puts), "1/put"},
		{"dep.ios_per_put", div(c("sched.ios"), puts), "1/put"},
		{"dep.coalesced_ratio", div(c("sched.coalesced"), c("sched.ios")+c("sched.coalesced")), "ratio"},
		{"dep.group_size_mean", hraw("sched.group_size"), "count"},
		{"dep.follower_wait_us", hmean("sched.barrier_wait"), "us"},
		{"dep.leader_wait_us", hmean("sched.barrier_wait_leader"), "us"},
		{"dep.step_call_us", call(mSchedStep), "us"},
		{"dep.sync_call_us", call(mSchedSync), "us"},
		{"dep.blocked_errors", float64(r.fails.n[causeBlocked]), "count"},

		{"extent.free_min", freeMin, "count"},
		{"extent.flush_call_us", call(mFlushSuperblock), "us"},
		{"extent.used_bytes_end", median(r.usedEnd), "B"},

		{"disk.syncs_per_op", div(c("disk.syncs"), ops), "1/op"},
		{"disk.writes_per_op", div(c("disk.writes"), ops), "1/op"},
		{"disk.bytes_written_per_op", div(c("disk.bytes_written"), ops), "B"},
		{"disk.bytes_read_per_op", div(c("disk.bytes_read"), ops), "B"},
		{"disk.sync_us", hmean("disk.sync_lat"), "us"},
		{"disk.write_us", hmean("disk.write_lat"), "us"},
		{"disk.read_us", hmean("disk.read_lat"), "us"},

		{"compact.steps_per_kop", div(c("compact.steps")*1000, ops), "1/kop"},
		{"compact.bytes_rewritten_per_user_byte", div(c("compact.bytes_rewritten"), userB), "B/B"},
		{"compact.step_call_us", call(mCompact), "us"},
		{"compact.abort_ratio", div(c("compact.aborts"), compacts), "ratio"},

		{"scrub.step_call_us", call(mScrub), "us"},
		{"scrub.bytes_verified_per_op", div(c("scrub.bytes_verified"), ops), "B"},

		{"shardstore.maint_busy_frac", div(float64(tick.total), float64(r.elapsed.Nanoseconds())), "ratio"},
		{"shardstore.tick_self_us", div(float64(tick.self)/1e3, float64(tick.n)), "us"},
		{"shardstore.maint_errors", float64(r.maintErrs), "count"},

		{"core.ops_per_case", r.opsPerCase, "count"},
		{"core.crash_states_per_case", r.crashesPerCase, "count"},
		{"coverage.probes_hit", float64(r.probesHit), "count"},
	}
}

// checkRate is conformance cases per second; 0 on the node workloads.
func checkRate(r *result) float64 {
	if r.node {
		return 0
	}
	return opsRate(r)
}

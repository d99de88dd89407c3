package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"shardstore/internal/extent"
	"shardstore/internal/obs"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Microsecond
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples: the p99 rank is 990, with exactly ten beyond it.
	if d, ok := percentile(durations(1000), 0, 0.99); !ok || d != 990*time.Microsecond {
		t.Fatalf("p99 of 1000 = %v, %v; want 990µs, resolved", d, ok)
	}
	// 999 samples: the p99 rank is 990 of 999, nine beyond: unresolved.
	if _, ok := percentile(durations(999), 0, 0.99); ok {
		t.Fatal("p99 of 999 samples resolved with nine beyond it")
	}
	if d, ok := percentile(durations(21), 0, 0.50); !ok || d != 11*time.Microsecond {
		t.Fatalf("p50 of 21 = %v, %v; want 11µs, resolved", d, ok)
	}
	if _, ok := percentile(durations(19), 0, 0.50); ok {
		t.Fatal("p50 of 19 samples resolved with nine beyond it")
	}
	if _, ok := percentile(nil, 0, 0.50); ok {
		t.Fatal("percentile of nothing resolved")
	}
}

func TestFailedOpsLieBeyondEveryPercentile(t *testing.T) {
	// 990 successes and 10 failures: the failures fill ranks 991..1000, so
	// p99 still falls on the slowest successes.
	if d, ok := percentile(durations(990), 10, 0.99); !ok || d != 990*time.Microsecond {
		t.Fatalf("p99 = %v, %v; want 990µs, resolved", d, ok)
	}
	// 980 successes and 20 failures: rank 990 is a failure, so p99 is
	// beyond every success and cannot be reported.
	if _, ok := percentile(durations(980), 20, 0.99); ok {
		t.Fatal("p99 resolved although it falls on a failed op")
	}
	// Failures shift the median: 600 successes, 400 failures -> rank 500.
	if d, ok := percentile(durations(600), 400, 0.50); !ok || d != 500*time.Microsecond {
		t.Fatalf("p50 = %v, %v; want 500µs", d, ok)
	}
	var tm timing
	tm.ok = durations(10)
	tm.failed = 30
	if got := tm.quantileUs(0.50); got != -1 {
		t.Fatalf("median with 75%% failures = %v, want unresolved (-1)", got)
	}
}

func TestRPCSelfTimeCountsFailedCalls(t *testing.T) {
	// Three gets take 100µs at the client and 80µs at the server; a fourth
	// fails fast, 20µs at the client and 10µs at the server. The server's
	// histogram holds all four requests, so the client mean must as well:
	// (3*100+20)/4 = 80µs, minus the server's (3*80+10)/4 = 62.5µs.
	var r result
	for i := 0; i < 3; i++ {
		r.timings[opGet].add(100*time.Microsecond, nil)
	}
	r.timings[opGet].add(20*time.Microsecond, errors.New("rpc: extent: no free extents"))
	r.attempted, r.failed = 4, 1
	r.delta = obs.Snapshot{Histograms: map[string]obs.HistogramSnapshot{
		"rpc.get_lat": {Count: 4, Sum: uint64((3*80 + 10) * time.Microsecond)},
	}}
	got := map[string]float64{}
	for _, m := range perLayer(&r) {
		got[m.name] = m.value
	}
	if got["rpc.client_us"] != 80 || got["rpc.self_us"] != 17.5 {
		t.Fatalf("rpc.client_us = %v, rpc.self_us = %v; want 80 and 17.5", got["rpc.client_us"], got["rpc.self_us"])
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// tick [0,100] has children a [10,30], b [20,50] (overlapping a) and
	// c [90,120] (sticking out); a has a child [12,18].
	spans := []span{
		{ID: 1, Name: "tick", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
	}
	got := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the tick: 50 of 100.
	want := map[string]int64{"tick": 50, "a": 14, "b": 30, "c": 30, "leaf": 6}
	for name, self := range want {
		if got[name].self != self {
			t.Errorf("self(%s) = %d, want %d", name, got[name].self, self)
		}
	}
	if got["tick"].total != 100 || got["tick"].n != 1 {
		t.Errorf("tick totals = %+v", got["tick"])
	}
}

func opSeq(m mix, seed int64, client, n int) []op {
	g := newGen(m, seed, client, benchClients, 4096)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSeedDeterminesOps(t *testing.T) {
	for _, m := range []mix{putDurableMix, readMostlyMix} {
		a, b := opSeq(m, 7, 1, 2000), opSeq(m, 7, 1, 2000)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%+v: same seed gave different op sequences", m)
		}
		if fmt.Sprint(a) == fmt.Sprint(opSeq(m, 8, 1, 2000)) {
			t.Fatalf("%+v: seeds 7 and 8 gave the same op sequence", m)
		}
		if fmt.Sprint(a) == fmt.Sprint(opSeq(m, 7, 0, 2000)) {
			t.Fatalf("%+v: clients 0 and 1 gave the same op sequence", m)
		}
		for _, o := range a {
			if o.key%benchClients != 1 || o.key >= 4096 {
				t.Fatalf("%+v: client 1 drew key %d outside its partition", m, o.key)
			}
		}
	}
	kinds := map[opKind]int{}
	for _, o := range opSeq(readMostlyMix, 3, 0, 20000) {
		kinds[o.kind]++
	}
	if kinds[opGet] < 17000 || kinds[opScan] < 800 || kinds[opPut] < 800 || kinds[opPutDurable] != 0 {
		t.Fatalf("read-mostly mix drew %v", kinds)
	}
}

func TestValueCheck(t *testing.T) {
	buf := make([]byte, 4096)
	encodeValue(buf, 5, keyName(42), 1, 9)
	if v, err := decodeValue(buf, keyName(42)); err != nil || v != 9 {
		t.Fatalf("decode = %d, %v", v, err)
	}
	if _, err := decodeValue(buf, keyName(43)); !errors.Is(err, errBadValue) {
		t.Fatalf("value of another key accepted: %v", err)
	}
	buf[2000] ^= 1
	if _, err := decodeValue(buf, keyName(42)); !errors.Is(err, errBadValue) {
		t.Fatalf("corrupt value accepted: %v", err)
	}
	if !(keyState{acked: 3, tried: 5}).admits(4) || (keyState{acked: 3, tried: 5}).admits(2) {
		t.Fatal("keyState admits the wrong versions")
	}
}

func TestClassify(t *testing.T) {
	cases := map[failCause]error{
		causeNoSpace: fmt.Errorf("rpc: %w: last writable extent reserved for reclamation", extent.ErrNoFreeExtent),
		causeBlocked: errors.New("rpc: dep: 9 writebacks blocked (IO failures?)"),
		causeCheck:   fmt.Errorf("%w: bad", errBadValue),
		causeOther:   errors.New("rpc: connection reset"),
	}
	for want, err := range cases {
		if got := classify(err); got != want {
			t.Errorf("classify(%v) = %s, want %s", err, causeNames[got], causeNames[want])
		}
	}
}

func TestSegmentsOverhead(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := newSegments(10, t0)
	at := t0
	// Untraced segments take 100ms, traced ones 125ms: traced rate is 0.8 of
	// the untraced rate.
	for j := uint64(1); j <= 6; j++ {
		if j%2 == 1 {
			at = at.Add(100 * time.Millisecond)
		} else {
			at = at.Add(125 * time.Millisecond)
		}
		s.completed(j*10, at)
	}
	if s.traced(5) || !s.traced(15) {
		t.Fatal("segment parity wrong")
	}
	if got := overheadOf(s.ratios()); got < 0.199 || got > 0.201 {
		t.Fatalf("overhead = %v, want 0.2", got)
	}
}

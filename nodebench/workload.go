package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"shardstore/internal/chunk"
	"shardstore/internal/obs"
	"shardstore/internal/rpc"
)

// nodeWorkload is one traffic mix against the node.
type nodeWorkload struct {
	mix       mix
	valueSize int
	keys      int
	// runIn is how long the mix runs, unmeasured, before measuring starts.
	runIn time.Duration
	// roundOps, when set, cuts the run into rounds: each round sets up a
	// fresh node and measures it for roundOps calls, until the measured
	// time of all rounds reaches the run's length.
	roundOps int
}

const benchClients = 2

var (
	// putDurable overwrites one-chunk values whose live set takes a quarter
	// of the node's capacity on disk. The node has no steady state under
	// this load (README.md, Known behaviour): the CPU cost of a put climbs
	// from about 14k puts on, so the run is cut into rounds of 4096 puts,
	// each on a freshly preloaded node, and every round measures the same
	// stretch of the node's life whatever its speed.
	putDurable = nodeWorkload{mix: putDurableMix, valueSize: 4096, keys: nodeBytes / 4 / onDiskBytes(4096), roundOps: 4096}
	// readMostly reads a 64 MiB live set of two-chunk values. Its scans
	// slow down as overwrites leave stale index entries, until compaction
	// keeps pace about ten seconds in; the run-in skips that transient.
	readMostly = nodeWorkload{mix: readMostlyMix, valueSize: 8192, keys: 64 << 20 / 8192, runIn: 10 * time.Second}
)

// onDiskBytes is the space one value of valueSize bytes takes on a disk:
// the store cuts it into chunks of at most 1.5 pages (its default), frames
// each with its key and pads the frame to whole pages.
func onDiskBytes(valueSize int) int {
	const maxPayload = nodePageSize + nodePageSize/2
	n := 0
	for rest := valueSize; rest > 0; rest -= maxPayload {
		frame := chunk.FrameLen(len(keyName(0)), min(rest, maxPayload))
		n += (frame + nodePageSize - 1) / nodePageSize * nodePageSize
	}
	return n
}

// result is everything one run measured. Node workloads fill the node
// fields, the check workload the check fields.
type result struct {
	correct   bool
	attempted int
	failed    int
	succeeded int
	problems  []string
	fails     failures
	setup     []float64 // seconds per set-up
	elapsed   time.Duration
	windows   []window
	heap      []float64 // live heap samples, bytes

	// Node workloads; a run cut into rounds sums or lists them over rounds.
	node      bool
	timings   [numOpKinds]timing
	delta     obs.Snapshot // registry change over the measured time
	putsAck   int
	bytesAck  int64
	liveBytes int64
	usedEnd   []float64 // per round: extent bytes in use at its end
	runsEnd   []float64 // per round: LSM runs at its end
	levelsEnd []float64 // per round: most LSM levels on one disk at its end
	freeMin   int       // fewest free extents any disk had after a tick
	maintErrs int
	dur       durabilityResult

	// Check workload (batch 0 only, so fixed by the seed).
	opsPerCase     float64
	crashesPerCase float64
	probesHit      int

	spans     []span
	segRatios []float64 // tracing overhead pairs, traced runs only
}

const (
	// commitPuts is how many durable puts each client makes on the fresh
	// node of checkCommitPath before it crashes.
	commitPuts = 64
	// traceSegment is the op count of one traced or untraced segment.
	traceSegment = 256
	// windowOps is the successful ops of one metered window of a node
	// workload: an eighth of a put-durable round, about a tenth of a second
	// of read-mostly.
	windowOps = 512
)

// runNode sets up the node, measures w on it and checks its outputs; a
// workload with rounds does so once per round.
func runNode(o options, w nodeWorkload) (*result, error) {
	r := &result{correct: true, node: true, liveBytes: int64(w.keys) * int64(w.valueSize), freeMin: nodeExtentCount}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+150*time.Second)
	defer cancel()

	if w.mix.durable {
		// The measured node's crash cannot catch a put acknowledged before
		// it was durable: by then maintenance has synced every put. The
		// commit path gets its own check, on a fresh node with no
		// maintenance running, gone before the measured one is built.
		d, err := checkCommitPath(ctx, o.seed, w)
		if err != nil {
			return nil, err
		}
		r.lost(d, "a fresh node")
	}

	budget := time.Duration(o.seconds) * time.Second
	var tr *runTracers
	if o.trace {
		tr = newRunTracers()
	}
	if w.roundOps == 0 || o.oneNode {
		runs := setupRuns
		if o.trace {
			runs = 1
		}
		return r, r.phase(ctx, o, w, o.seed, runs, budget, 0, tr)
	}
	for round := 0; r.elapsed < budget; round++ {
		// Each round runs its own keys' values and ops, all from the seed.
		seed := splitmix(o.seed, uint64(round)+1<<20)
		if err := r.phase(ctx, o, w, seed, 1, budget-r.elapsed, w.roundOps/benchClients, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runTracers are the span buffers of a traced run, kept across its rounds
// so that span IDs stay unique and times share one base.
type runTracers struct {
	clients []*tracer
	maint   *tracer
}

func newRunTracers() *runTracers {
	now := time.Now()
	t := &runTracers{maint: newTracer(now, benchClients)}
	for i := 0; i < benchClients; i++ {
		t.clients = append(t.clients, newTracer(now, i))
	}
	return t
}

// phase sets up a node setups times (keeping the last), runs w's run-in,
// measures the mix for budget or until each client has made limit calls
// (0 = no limit), adds what it saw to r, and on a durable mix crashes the
// node and checks that every acknowledged write survived.
func (r *result) phase(ctx context.Context, o options, w nodeWorkload, seed int64, setups int, budget time.Duration, limit int, tr *runTracers) error {
	var n *node
	for i := 0; i < setups; i++ {
		if n != nil {
			n.close()
			n = nil
		}
		quiesceHeap()
		t0 := time.Now()
		var err error
		if n, err = startNode(); err != nil {
			return err
		}
		if err := n.preload(ctx, seed, w.keys, w.valueSize, benchClients); err != nil {
			n.close()
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer n.close()

	cs, err := dialClients(ctx, n, seed, w)
	defer closeClients(cs)
	if err != nil {
		return err
	}
	var okOps atomic.Uint64
	for _, c := range cs {
		c.ok = &okOps
	}
	if w.runIn > 0 {
		m := startMaintenance(n.stores, nil, o.maintBeside)
		runClients(ctx, cs, time.Now().Add(w.runIn), 0, m, nil)
		m.halt()
		for _, c := range cs {
			c.resetStats()
		}
	}

	met := startMeter(okOps.Load, windowOps)
	before := n.obs.Snapshot()
	start := time.Now()
	var seg *segments
	var mtr *tracer
	if tr != nil {
		seg = newSegments(traceSegment, start)
		mtr = tr.maint
		for i, c := range cs {
			c.tr = tr.clients[i]
		}
	}
	m := startMaintenance(n.stores, mtr, o.maintBeside)
	runClients(ctx, cs, start.Add(budget), limit, m, seg)
	r.elapsed += time.Since(start)
	windows, heap := met.end()
	r.windows = append(r.windows, windows...)
	r.heap = append(r.heap, heap...)
	m.halt()
	addSnapshot(&r.delta, snapshotDelta(before, n.obs.Snapshot()))
	r.freeMin = min(r.freeMin, m.freeMin)
	r.maintErrs += m.errs
	if m.lastErr != nil {
		fmt.Fprintf(os.Stderr, "nodebench: last maintenance error: %v\n", m.lastErr)
	}
	r.usedEnd = append(r.usedEnd, float64(n.usedBytes()))
	runs, levels := 0, 0
	for _, st := range n.stores {
		runs += st.Index().RunCount()
		lv := map[int]bool{}
		for _, ri := range st.Index().LevelInfo() {
			lv[ri.Level] = true
		}
		levels = max(levels, len(lv))
	}
	r.runsEnd = append(r.runsEnd, float64(runs))
	r.levelsEnd = append(r.levelsEnd, float64(levels))
	r.segRatios = append(r.segRatios, seg.ratios()...)

	states := make([][]keyState, len(cs))
	for i, c := range cs {
		states[i] = c.state
		for k := range c.timings {
			r.timings[k].merge(&c.timings[k])
			r.attempted += c.timings[k].attempted
			r.failed += c.timings[k].failed
			r.succeeded += c.timings[k].attempted - c.timings[k].failed
		}
		r.fails.merge(&c.fails)
		r.problems = append(r.problems, c.problems...)
		r.putsAck += c.putsAck
		r.bytesAck += c.bytesAck
	}
	if tr != nil {
		r.spans = r.spans[:0]
		for _, t := range tr.clients {
			r.spans = append(r.spans, t.spans...)
		}
		r.spans = append(r.spans, tr.maint.spans...)
	}

	if w.mix.durable {
		// Crash the measured node: every write it acknowledged must
		// survive, and its recovery time is store.open_ms.
		d, err := n.crashAndVerify(ctx, seed, states, benchClients)
		if err != nil {
			return err
		}
		r.dur.checked += d.checked
		r.dur.openMs = append(r.dur.openMs, d.openMs...)
		r.lost(d, "the measured node")
		fmt.Fprintf(os.Stderr, "nodebench: crash and reopen of the measured node: %d keys checked, %d lost\n", d.checked, d.lost)
	}
	r.correct = len(r.problems) == 0 && r.fails.n[causeCheck] == 0
	return nil
}

// lost charges the writes that crash and reopen of node lost as failed
// ops that fail the run.
func (r *result) lost(d durabilityResult, node string) {
	if d.lost == 0 {
		return
	}
	msg := fmt.Sprintf("%d of %d keys of %s lost an acknowledged write across crash and reopen; first: %s", d.lost, d.checked, node, d.firstLost)
	if r.fails.n[causeCheck] == 0 {
		r.fails.first[causeCheck] = msg
	}
	r.failed += d.lost
	r.fails.n[causeCheck] += d.lost
	r.problems = append(r.problems, msg)
}

// checkCommitPath checks that a durable put is durable when it is
// acknowledged. It preloads a fresh node, has each client make commitPuts
// durable puts with no maintenance running, so that nothing but the commit
// path can have made them durable, then crashes and reopens the node and
// reads every key back. If no put is acknowledged the check has not run,
// and that is an error.
func checkCommitPath(ctx context.Context, seed int64, w nodeWorkload) (durabilityResult, error) {
	n, err := startNode()
	if err != nil {
		return durabilityResult{}, err
	}
	defer n.close()
	if err := n.preload(ctx, seed, w.keys, w.valueSize, benchClients); err != nil {
		return durabilityResult{}, err
	}
	cs, err := dialClients(ctx, n, seed, w)
	defer closeClients(cs)
	if err != nil {
		return durabilityResult{}, err
	}
	acked := 0
	states := make([][]keyState, len(cs))
	for i, c := range cs {
		for j := 0; j < commitPuts; j++ {
			if c.do(ctx, c.gen.next()) == nil { // outcome recorded in c.state
				acked++
			}
		}
		states[i] = c.state
	}
	if acked == 0 {
		return durabilityResult{}, fmt.Errorf("commit-path check not exercised: none of %d durable puts on a fresh node was acknowledged", commitPuts*len(cs))
	}
	d, err := n.crashAndVerify(ctx, seed, states, benchClients)
	if err == nil {
		fmt.Fprintf(os.Stderr, "nodebench: commit path: %d of %d durable puts acknowledged on a fresh node; crash and reopen: %d keys checked, %d lost\n",
			acked, commitPuts*len(cs), d.checked, d.lost)
	}
	return d, err
}

// dialClients connects one client per benchClients to n, each with the op
// generator of w's mix and no writes acknowledged yet.
func dialClients(ctx context.Context, n *node, seed int64, w nodeWorkload) ([]*client, error) {
	var cs []*client
	for i := 0; i < benchClients; i++ {
		rc, err := rpc.DialContext(ctx, n.addr)
		if err != nil {
			return cs, err
		}
		cs = append(cs, &client{
			id: i, clients: benchClients, keys: w.keys, seed: seed,
			rpc:   rc,
			gen:   newGen(w.mix, seed, i, benchClients, w.keys),
			state: make([]keyState, w.keys/benchClients),
			buf:   make([]byte, w.valueSize),
		})
	}
	return cs, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.rpc.Close()
	}
}

// addSnapshot adds d's counters and histograms to dst and takes its gauges.
func addSnapshot(dst *obs.Snapshot, d obs.Snapshot) {
	if dst.Counters == nil {
		dst.Counters = map[string]uint64{}
		dst.Histograms = map[string]obs.HistogramSnapshot{}
	}
	for name, v := range d.Counters {
		dst.Counters[name] += v
	}
	for name, h := range d.Histograms {
		sum := dst.Histograms[name]
		dst.Histograms[name] = obs.HistogramSnapshot{Count: sum.Count + h.Count, Sum: sum.Sum + h.Sum}
	}
	dst.Gauges = d.Gauges
}

// snapshotDelta is after minus before for counters and histogram count/sum;
// gauges keep their after value.
func snapshotDelta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     after.Gauges,
		Histograms: map[string]obs.HistogramSnapshot{},
	}
	for name, v := range after.Counters {
		d.Counters[name] = v - before.Counters[name]
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		d.Histograms[name] = obs.HistogramSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
	}
	return d
}

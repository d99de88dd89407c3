// Command nodebench is the repository's benchmark: it runs one storage node
// in steady state, or the conformance check, and reports what its two kinds
// of user see. See README.md for the workloads, the metrics and what each
// is meant to judge.
//
//	nodebench -workload put-durable|read-mostly|check -seed N -seconds S -trace 0|1 [-out DIR]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// same workload with spans recorded around every call it makes into the
// node and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// The exit status is 1 when an output check failed (a wrong Get or Scan
// value, an acknowledged write lost across crash and reopen, a conformance
// violation) and 2 when the benchmark itself could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	// maintBeside runs maintenance beside client requests instead of
	// between them; oneNode measures a workload with rounds on one node.
	maintBeside bool
	oneNode     bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "put-durable, read-mostly or check")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every key, value and op choice derives from it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the span file of a traced run")
	flag.BoolVar(&o.oneNode, "one-node", false, "put-durable: measure one node for the whole run instead of rounds of fresh nodes")
	flag.BoolVar(&o.maintBeside, "maint-beside", false, "run maintenance beside client requests, as shardstore -listen does, instead of between them")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}

	var r *result
	var err error
	switch o.workload {
	case "put-durable":
		r, err = runNode(o, putDurable)
	case "read-mostly":
		r, err = runNode(o, readMostly)
	case "check":
		r, err = runCheck(o)
	default:
		err = fmt.Errorf("unknown -workload %q", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	if o.trace && len(r.spans) > 0 {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, r.spans); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "nodebench: %d spans written to %s\n", len(r.spans), path)
	}
	var perSec []string
	for _, w := range r.windows {
		perSec = append(perSec, fmt.Sprintf("%d/%.0fus", w.ops, div(us(w.cpu), float64(w.ops))))
	}
	fmt.Fprintf(os.Stderr, "nodebench: successful ops and CPU per op, window by window: %s\n", strings.Join(perSec, " "))
	ms := endToEnd(r)
	if o.trace {
		ms = perLayer(r)
	}
	report(o.workload, r, ms)
	if !r.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nodebench: %v\n", err)
	os.Exit(2)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report prints every metric by name and unit, the failure breakdown and
// any output-check problems, then the JSON result line.
func report(workload string, r *result, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%s %-40s %14.4f %s\n", workload, m.name, m.value, m.unit)
	}
	fmt.Printf("%s attempted %d, failed %d", workload, r.attempted, r.failed)
	for c := failCause(0); c < numCauses; c++ {
		if r.fails.n[c] > 0 {
			fmt.Printf(", %s %d", causeNames[c], r.fails.n[c])
		}
	}
	fmt.Println()
	for c := failCause(0); c < numCauses; c++ {
		if r.fails.n[c] > 0 {
			fmt.Printf("%s first %s failure: %s\n", workload, causeNames[c], r.fails.first[c])
		}
	}
	for _, p := range r.problems {
		fmt.Printf("%s OUTPUT CHECK FAILED: %s\n", workload, p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jm, len(ms))}
	for _, m := range ms {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median. A traced run sets up once.
const setupRuns = 5

// runClients runs every client until deadline, or until each has made limit
// calls (0 = no limit), and waits for all of them.
func runClients(ctx context.Context, cs []*client, deadline time.Time, limit int, m *maintenance, seg *segments) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(ctx, deadline, limit, m, seg)
		}(c)
	}
	wg.Wait()
}

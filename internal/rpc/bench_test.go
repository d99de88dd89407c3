package rpc

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// benchSeed loads n small shards so benchmark reads hit real entries.
func benchSeed(tb testing.TB, c *Client, n int) {
	tb.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := c.Put(ctx, benchKey(i), []byte("benchmark value payload")); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchKey(i int) string { return fmt.Sprintf("bench-%03d", i%64) }

// BenchmarkRPCPipelined measures the v2 client with a fixed window of
// in-flight requests on ONE connection. depth=1 is the lock-step shape in
// the new framing (isolates the codec win); depth 8 and 64 show the
// pipelining win (amortizes wire latency across the window).
func BenchmarkRPCPipelined(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			ctx := context.Background()
			_, c := newTestServer(b, 2)
			benchSeed(b, c, 64)
			b.ResetTimer()
			window := make([]*Call, 0, depth)
			for i := 0; i < b.N; i++ {
				window = append(window, c.GoGet(benchKey(i)))
				if len(window) == depth {
					for _, call := range window {
						if _, err := call.Wait(ctx); err != nil {
							b.Fatal(err)
						}
					}
					window = window[:0]
				}
			}
			for _, call := range window {
				if _, err := call.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkRPCSharedClient8 is the acceptance shape: ONE v2 client shared by
// 8 goroutines, each keeping a depth-64 pipeline in flight.
func BenchmarkRPCSharedClient8(b *testing.B) {
	ctx := context.Background()
	_, c := newTestServer(b, 2)
	benchSeed(b, c, 64)
	const goroutines, depth = 8, 64
	b.ResetTimer()
	perG := b.N / goroutines
	if perG == 0 {
		perG = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			window := make([]*Call, 0, depth)
			drain := func() {
				for _, call := range window {
					if _, err := call.Wait(ctx); err != nil {
						b.Error(err)
						return
					}
				}
				window = window[:0]
			}
			for i := 0; i < perG; i++ {
				window = append(window, c.GoGet(benchKey(i)))
				if len(window) == depth {
					drain()
				}
			}
			drain()
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(perG*goroutines)/b.Elapsed().Seconds(), "ops/s")
}

// TestPipelineThroughputGain enforces the redesign's acceptance bar: a single
// v2 client shared by 8 goroutines at pipeline depth 64 sustains at least 4x
// the ops/sec of lock-step calls (depth 1: each Get waits for its reply
// before the next is sent) against the same server. One round measures
// 400 lock-step Gets and then the pipelined shape, a few tens of
// milliseconds in all, so a single descheduling on a busy box can decide
// it; the gate takes the median ratio of five paired rounds.
func TestPipelineThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the pipelined/lock-step ratio; see race_on_test.go")
	}
	_, c := newWideServer(t, 4)
	benchSeed(t, c, 64)

	const rounds = 5
	ratios := make([]float64, rounds)
	for r := range ratios {
		lockstep := lockstepRate(t, c)
		pipelined := pipelinedRate(t, c)
		ratios[r] = pipelined / lockstep
		t.Logf("round %d: v2 lock-step depth 1: %.0f ops/s; v2 shared 8×depth64: %.0f ops/s (%.1fx)", r, lockstep, pipelined, ratios[r])
	}
	sort.Float64s(ratios)
	median := ratios[rounds/2]
	t.Logf("median pipelined/lock-step ratio over %d rounds: %.1fx (ops/s)", rounds, median)
	if median < 4 {
		t.Fatalf("pipelined throughput is under 4x the lock-step throughput: median ratio %.1fx, rounds %.1f", median, ratios)
	}
}

// lockstepRate measures 400 Gets at depth 1: each waits for its reply
// before the next is sent.
func lockstepRate(t *testing.T, c *Client) float64 {
	const lockstepOps = 400
	ctx := context.Background()
	start := time.Now() //shardlint:allow determinism throughput measurement, not a replayed path
	for i := 0; i < lockstepOps; i++ {
		if _, err := c.Get(ctx, benchKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	return float64(lockstepOps) / time.Since(start).Seconds() //shardlint:allow determinism throughput measurement, not a replayed path
}

// pipelinedRate measures the client shared by 8 goroutines, each keeping a
// window of 64 Gets in flight, 1024 Gets per goroutine.
func pipelinedRate(t *testing.T, c *Client) float64 {
	const goroutines, depth, perG = 8, 64, 1024
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := time.Now() //shardlint:allow determinism throughput measurement, not a replayed path
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			window := make([]*Call, 0, depth)
			drain := func() error {
				for _, call := range window {
					if _, err := call.Wait(ctx); err != nil {
						return err
					}
				}
				window = window[:0]
				return nil
			}
			for i := 0; i < perG; i++ {
				window = append(window, c.GoGet(benchKey(i)))
				if len(window) == depth {
					if err := drain(); err != nil {
						errs <- err
						return
					}
				}
			}
			if err := drain(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return float64(goroutines*perG) / time.Since(start).Seconds() //shardlint:allow determinism throughput measurement, not a replayed path
}

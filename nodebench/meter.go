package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// window is one slice of a measured run: the ops that succeeded in it and
// the process CPU time and bytes allocated during it. A window closes when
// a fixed number of ops has succeeded, not after a fixed time, so window k
// of every run, or of every put-durable round, covers the same stretch of
// the workload.
type window struct {
	ops   uint64
	cpu   time.Duration
	alloc uint64
}

// meter measures the process-wide cost of a measured run: CPU time from
// getrusage and bytes allocated from the runtime, window by window, and the
// live heap (what the last collection found reachable) sampled every 5 ms.
// A single goroutine samples both and owns every field until done is
// closed.
type meter struct {
	ops     func() uint64 // successful ops so far
	every   uint64        // successful ops per window; 0 = one window
	ops0    uint64
	cpu0    time.Duration
	alloc0  uint64
	windows []window
	heap    []float64 // live heap samples, bytes
	stop    chan struct{}
	done    chan struct{}
}

// heapPeakQuantile is the quantile of the live-heap samples reported as the
// run's peak heap: high enough to be a peak, low enough that one collection
// that happened to find an unusually large case in flight does not set it.
const heapPeakQuantile = 0.9

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quiesceHeap collects garbage and returns free memory to the OS, so every
// set-up and every measured run starts from the same heap state.
func quiesceHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// startMeter starts measuring with windows of every successful ops (0 =
// one window); ops reports the successful ops so far and must be safe to
// call from another goroutine.
func startMeter(ops func() uint64, every uint64) *meter {
	quiesceHeap()
	m := &meter{ops: ops, every: every, stop: make(chan struct{}), done: make(chan struct{})}
	m.ops0, m.cpu0, m.alloc0 = ops(), cpuTime(), totalAlloc()
	go m.sample()
	return m
}

func (m *meter) sample() {
	defer close(m.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		m.heap = append(m.heap, float64(s[0].Value.Uint64()))
		if m.every > 0 && m.ops()-m.ops0 >= m.every {
			m.closeWindow()
		}
		select {
		case <-m.stop:
			if m.every == 0 || m.ops()-m.ops0 >= m.every/2 {
				m.closeWindow()
			}
			return
		case <-tick.C:
		}
	}
}

func (m *meter) closeWindow() {
	ops, cpu, alloc := m.ops(), cpuTime(), totalAlloc()
	m.windows = append(m.windows, window{ops: ops - m.ops0, cpu: cpu - m.cpu0, alloc: alloc - m.alloc0})
	m.ops0, m.cpu0, m.alloc0 = ops, cpu, alloc
}

// end stops the meter and returns the run's windows (a last window with
// fewer than half a window's ops is dropped) and its live heap samples.
func (m *meter) end() ([]window, []float64) {
	close(m.stop)
	<-m.done
	return m.windows, m.heap
}

// heapPeak is the heapPeakQuantile of live heap samples.
func heapPeak(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(heapPeakQuantile*float64(len(s)-1))]
}

// perOpMedian is the median over windows of f per successful op. A window
// without a success (only a check run whose every case failed) has no cost
// per op and does not count.
func perOpMedian(ws []window, f func(w window) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if w.ops > 0 {
			xs = append(xs, f(w)/float64(w.ops))
		}
	}
	return median(xs)
}

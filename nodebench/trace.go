package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into a layer's public
// function: a client RPC, a maintenance call, a conformance batch. Op ties
// the spans of one operation together; Parent is 0 for a root span.
type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     int64 // ns since the run's time base
}

// tracer buffers one goroutine's spans in memory; nothing is written until
// the run ends. A nil *tracer records nothing.
type tracer struct {
	base  time.Time
	lane  uint64 // high bits of every ID this tracer hands out
	seq   uint64
	spans []span
}

func newTracer(base time.Time, lane int) *tracer {
	return &tracer{base: base, lane: uint64(lane+1) << 40}
}

// id reserves a span ID, so a parent can be named before its children end.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.seq++
	return t.lane | t.seq
}

func (t *tracer) add(id, parent, opID uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: opID, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
}

// spanTotals is the per-name sum over a set of spans.
type spanTotals struct {
	n     int
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
}

// selfTimes computes, for every span name, its count, total duration and
// self time: a span's duration minus the part of its interval that the
// union of its children's intervals covers.
func selfTimes(spans []span) map[string]spanTotals {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		covered := coveredBy(s, kids[s.ID])
		t := out[s.Name]
		t.n++
		t.total += s.End - s.Start
		t.self += s.End - s.Start - covered
		out[s.Name] = t
	}
	return out
}

// coveredBy returns how much of parent's interval the union of children
// covers, clipping each child to the parent.
func coveredBy(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return covered
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// segments measures the tracing overhead inside a traced run. Completed ops
// are cut into consecutive segments of size ops; odd segments are traced and
// even ones are not, so both kinds see the same node state and the same
// drift. Each untraced segment pairs with the traced one after it, and the
// overhead is one minus the median over pairs of the traced segment's rate
// over the untraced one's; the median keeps a maintenance burst that lands in
// one segment from swinging the result.
type segments struct {
	size  uint64
	mu    sync.Mutex
	marks map[uint64]time.Time // segment index -> time its first op began
}

func newSegments(size uint64, start time.Time) *segments {
	return &segments{size: size, marks: map[uint64]time.Time{0: start}}
}

// traced reports whether an op starting after done completed ops is traced.
func (s *segments) traced(done uint64) bool {
	return s != nil && (done/s.size)%2 == 1
}

// completed records that the done-th op finished at t.
func (s *segments) completed(done uint64, t time.Time) {
	if s == nil || done%s.size != 0 {
		return
	}
	s.mu.Lock()
	s.marks[done/s.size] = t
	s.mu.Unlock()
}

// ratios returns, for every complete pair of segments, the untraced
// segment's duration over the traced one's: the traced rate relative to the
// untraced one.
func (s *segments) ratios() []float64 {
	if s == nil {
		return nil
	}
	var ratios []float64
	for j := uint64(0); ; j += 2 {
		a, okA := s.marks[j]
		b, okB := s.marks[j+1]
		c, okC := s.marks[j+2]
		if !okA || !okB || !okC {
			break
		}
		plain, traced := b.Sub(a), c.Sub(b)
		if plain > 0 && traced > 0 {
			ratios = append(ratios, float64(plain)/float64(traced))
		}
	}
	return ratios
}

// overheadOf is the tracing overhead the pair ratios show; 0 without one.
func overheadOf(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	return 1 - median(ratios)
}

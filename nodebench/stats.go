package main

import (
	"errors"
	"math"
	"sort"
	"strings"
	"time"

	"shardstore/internal/extent"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of a timing whose
// successful samples are ok (sorted ascending) and whose failed calls number
// failed. A failed call counts as slower than every success, so it lies
// beyond every percentile. The result is resolved only when at least
// minBeyond samples lie beyond the rank and the rank falls on a success.
func percentile(ok []time.Duration, failed int, q float64) (time.Duration, bool) {
	n := len(ok) + failed
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond || idx >= len(ok) {
		return 0, false
	}
	return ok[idx], true
}

// timing is one op kind's record: every attempt, the failures, the latency
// of each success, and the summed latency of every attempt, failures
// included.
type timing struct {
	attempted int
	failed    int
	ok        []time.Duration
	total     time.Duration
}

func (t *timing) add(d time.Duration, err error) {
	t.attempted++
	t.total += d
	if err != nil {
		t.failed++
	} else {
		t.ok = append(t.ok, d)
	}
}

func (t *timing) merge(o *timing) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ok = append(t.ok, o.ok...)
	t.total += o.total
}

// meanUs is the mean latency of every attempt in microseconds, failures
// included, as a server-side histogram that observes every request has it.
func (t *timing) meanUs() float64 {
	return div(float64(t.total)/float64(time.Microsecond), float64(t.attempted))
}

// quantileUs reports the q-quantile in microseconds, or -1 when it is not
// resolved (too few samples beyond it, or the rank lands on failures).
func (t *timing) quantileUs(q float64) float64 {
	sort.Slice(t.ok, func(i, j int) bool { return t.ok[i] < t.ok[j] })
	d, ok := percentile(t.ok, t.failed, q)
	if !ok {
		return -1
	}
	return float64(d) / float64(time.Microsecond)
}

// failCause classifies a failed op.
type failCause int

const (
	causeNoSpace failCause = iota // extent.ErrNoFreeExtent
	causeBlocked                  // dep: writebacks blocked behind failures
	causeCheck                    // wrong value, or a lost acknowledged write
	causeOther
	numCauses
)

var causeNames = [numCauses]string{"no_space", "dep_blocked", "check", "other"}

// classify maps an op error to its cause. Errors crossing the RPC boundary
// arrive as text, so the layer sentinels are matched by message.
func classify(err error) failCause {
	msg := err.Error()
	switch {
	case errors.Is(err, errBadValue):
		return causeCheck
	case strings.Contains(msg, extent.ErrNoFreeExtent.Error()):
		return causeNoSpace
	case strings.Contains(msg, "dep: ") && strings.Contains(msg, "blocked"):
		return causeBlocked
	}
	return causeOther
}

// failures tallies failed ops by cause and keeps the first message of each.
type failures struct {
	n     [numCauses]int
	first [numCauses]string
}

func (f *failures) add(err error) {
	c := classify(err)
	if f.n[c] == 0 {
		f.first[c] = err.Error()
	}
	f.n[c]++
}

func (f *failures) merge(o *failures) {
	for c := range f.n {
		if f.n[c] == 0 {
			f.first[c] = o.first[c]
		}
		f.n[c] += o.n[c]
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

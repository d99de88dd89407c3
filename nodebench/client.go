package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"shardstore/internal/rpc"
	"shardstore/internal/store"
)

// client is one closed-loop client on its own connection: it sends its next
// call only after the previous one returned, and checks every output.
type client struct {
	id      int
	clients int
	keys    int // global key count
	seed    int64
	rpc     *rpc.Client
	gen     *gen
	state   []keyState // by rank within this client's partition
	version uint64
	buf     []byte
	tr      *tracer
	ok      *atomic.Uint64 // successful ops of every client

	timings  [numOpKinds]timing
	fails    failures
	bytesAck int64 // value bytes of acknowledged puts
	putsAck  int
	problems []string // output-check failures, first few
}

const maxProblems = 5

// resetStats forgets what the client measured so far, keeping its key
// states and any output-check problems: a wrong value seen before measuring
// still fails the run.
func (c *client) resetStats() {
	c.timings = [numOpKinds]timing{}
	c.fails = failures{}
	c.bytesAck, c.putsAck = 0, 0
}

func (c *client) problem(err error) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, err.Error())
	}
}

// run issues calls until deadline or, with a limit, until it has made limit
// calls, reporting each completion to m.
func (c *client) run(ctx context.Context, deadline time.Time, limit int, m *maintenance, seg *segments) {
	for i := 0; (limit == 0 || i < limit) && time.Now().Before(deadline); i++ {
		o := c.gen.next()
		tr := c.tr
		if !seg.traced(m.ops.Load()) {
			tr = nil
		}
		m.enter()
		t0 := time.Now()
		err := c.do(ctx, o)
		t1 := time.Now()
		m.leave()
		if id := tr.id(); id != 0 {
			tr.add(id, 0, id, "rpc."+o.kind.String(), t0, t1)
		}
		c.timings[o.kind].add(t1.Sub(t0), err)
		if err != nil {
			c.fails.add(err)
			if classify(err) == causeCheck {
				c.problem(err)
			}
		} else {
			c.ok.Add(1)
		}
		seg.completed(m.opDone(o.kind == opPut || o.kind == opPutDurable), t1)
	}
}

func (c *client) do(ctx context.Context, o op) error {
	key := keyName(o.key)
	st := &c.state[o.key/c.clients]
	switch o.kind {
	case opPut, opPutDurable:
		c.version++
		st.tried = c.version
		encodeValue(c.buf, c.seed, key, c.id, c.version)
		var err error
		if o.kind == opPutDurable {
			err = c.rpc.PutDurable(ctx, key, c.buf)
		} else {
			err = c.rpc.Put(ctx, key, c.buf)
		}
		if err != nil {
			// The failed call may still hold the buffer.
			c.buf = make([]byte, len(c.buf))
			return err
		}
		st.acked = c.version
		c.bytesAck += int64(len(c.buf))
		c.putsAck++
		return nil
	case opGet:
		v, err := c.rpc.Get(ctx, key)
		if errors.Is(err, rpc.ErrNotFound) {
			// Every key is preloaded and never deleted.
			return fmt.Errorf("%w: get %s: %v", errBadValue, key, err)
		}
		if err != nil {
			return err
		}
		ver, err := decodeValue(v, key)
		if err != nil {
			return err
		}
		if !st.admits(ver) {
			return fmt.Errorf("%w: get %s returned version %d, want %d", errBadValue, key, ver, st.acked)
		}
		return nil
	case opScan:
		entries, next, err := c.rpc.Scan(ctx, key, "", scanLimit)
		if err != nil {
			return err
		}
		return c.checkScan(o.key, entries, next)
	}
	return fmt.Errorf("unknown op %d", o.kind)
}

// checkScan checks one Scan page starting at global key index from. Every
// key exists and none is ever deleted, so the page must be the consecutive
// keys from, from+1, ...; a page shorter than the limit without a
// continuation must end at the last key. Values must be intact, and keys of
// this client's own partition must hold the version it last wrote.
func (c *client) checkScan(from int, entries []store.ScanEntry, next string) error {
	if len(entries) > scanLimit {
		return fmt.Errorf("%w: scan from %s returned %d entries, limit %d", errBadValue, keyName(from), len(entries), scanLimit)
	}
	if len(entries) < scanLimit && next == "" && from+len(entries) != c.keys {
		return fmt.Errorf("%w: scan from %s ended after %d entries", errBadValue, keyName(from), len(entries))
	}
	for i, e := range entries {
		want := keyName(from + i)
		if e.Key != want {
			return fmt.Errorf("%w: scan from %s: entry %d is %s, want %s", errBadValue, keyName(from), i, e.Key, want)
		}
		ver, err := decodeValue(e.Value, want)
		if err != nil {
			return err
		}
		if k := from + i; k%c.clients == c.id && !c.state[k/c.clients].admits(ver) {
			return fmt.Errorf("%w: scan entry %s holds version %d, want %d", errBadValue, want, ver, c.state[k/c.clients].acked)
		}
	}
	return nil
}

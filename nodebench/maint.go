package main

import (
	"sync"
	"sync/atomic"
	"time"

	"shardstore/internal/store"
)

// Maintenance calls, per store and in this order, as `shardstore -listen`'s
// maintenance tick makes them, plus one compaction step and one scrub step.
const (
	mFlushIndex = iota
	mFlushSuperblock
	mReclaim
	mSchedStep
	mSchedSync
	mCompact
	mScrub
	numMaintCalls
)

var maintNames = [numMaintCalls]string{
	"lsm.flush_index", "extent.flush_superblock", "chunk.reclaim_auto",
	"dep.sched_step", "dep.sched_sync", "compact.step", "scrub.step",
}

const (
	// maintEvery is how many completed client puts trigger one tick. The
	// work maintenance must do (flushing, reclaiming, compacting) grows with
	// writes, so ticks follow the count of completed puts, not a timer, and
	// a seed repeats the same work.
	maintEvery = 64
	// reclaimWatermark: reclamation repeats while a disk has fewer free
	// extents than this, at most maxReclaims times per tick.
	//
	// This cadence reclaims far more often than `shardstore -listen`'s one
	// ReclaimAuto per store every 250 ms. With one ReclaimAuto a tick and
	// no watermark, one node under put-durable runs out of space within
	// 40 s even with ticks between requests.
	reclaimWatermark = 16
	maxReclaims      = 16
)

// maintenance runs the node's background work on its own goroutine. Clients
// report completed ops; every maintEvery-th put requests a tick, and
// requests that arrive while a tick runs coalesce into one. With a tracer,
// every tick and every call it makes is a span.
//
// Unless beside is set, a tick runs between client requests, not during
// them: each client call holds gate shared and a tick holds it exclusively.
// Beside requests, as `shardstore -listen` runs it, maintenance races the
// clients' durable puts, which fails some of them and can run the node out
// of space (README.md, Known behaviour).
type maintenance struct {
	stores []*store.Store
	beside bool
	gate   sync.RWMutex
	ops    atomic.Uint64
	puts   atomic.Uint64
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	tr     *tracer

	// Owned by the maintenance goroutine until done is closed.
	freeMin int // fewest free extents any disk had after a tick
	errs    int // failed maintenance calls
	lastErr error
}

func startMaintenance(stores []*store.Store, tr *tracer, beside bool) *maintenance {
	m := &maintenance{
		stores:  stores,
		beside:  beside,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		tr:      tr,
		freeMin: nodeExtentCount,
	}
	go m.loop()
	return m
}

// enter and leave bracket one client call.
func (m *maintenance) enter() {
	if !m.beside {
		m.gate.RLock()
	}
}

func (m *maintenance) leave() {
	if !m.beside {
		m.gate.RUnlock()
	}
}

// opDone counts one completed client op and returns the new op total.
func (m *maintenance) opDone(put bool) uint64 {
	if put && m.puts.Add(1)%maintEvery == 0 {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
	return m.ops.Add(1)
}

// halt stops the loop and waits for it; a tick in progress completes.
func (m *maintenance) halt() {
	close(m.stop)
	<-m.done
}

func (m *maintenance) loop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.kick:
			m.tick()
		}
	}
}

func (m *maintenance) tick() {
	if !m.beside {
		m.gate.Lock()
		defer m.gate.Unlock()
	}
	tickID := m.tr.id()
	t0 := time.Now()
	for _, st := range m.stores {
		m.call(mFlushIndex, tickID, func() error { _, err := st.FlushIndex(); return err })
		m.call(mFlushSuperblock, tickID, func() error { _, err := st.FlushSuperblock(); return err })
		more := true
		for i := 0; more && (i == 0 || i < maxReclaims && st.Extents().FreeCount() < reclaimWatermark); i++ {
			m.call(mReclaim, tickID, func() error {
				did, err := st.ReclaimAuto()
				more = did
				return err
			})
		}
		m.call(mSchedStep, tickID, func() error { st.SchedStep(); return nil })
		m.call(mSchedSync, tickID, st.SchedSync)
		m.call(mCompact, tickID, func() error { _, err := st.CompactStep(); return err })
		m.call(mScrub, tickID, func() error { _, _, err := st.ScrubStep(); return err })
		if free := st.Extents().FreeCount(); free < m.freeMin {
			m.freeMin = free
		}
	}
	m.tr.add(tickID, 0, 0, "maint.tick", t0, time.Now())
}

func (m *maintenance) call(which int, parent uint64, f func() error) {
	t0 := time.Now()
	err := f()
	m.tr.add(m.tr.id(), parent, 0, maintNames[which], t0, time.Now())
	if err != nil {
		m.errs++
		m.lastErr = err
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/obs"
	"shardstore/internal/rpc"
	"shardstore/internal/store"
)

// The node's geometry and settings are those of `shardstore -listen` with
// its defaults: 4 disks of 64 extents x 256 pages x 4 KiB, a 128-entry
// memtable, superblock auto-flush at 64 staged mutations, one replica, and a
// request-span ring of 64 with a 20 ms slow-op threshold.
const (
	nodeDisks          = 4
	nodePageSize       = 4096
	nodePagesPerExtent = 256
	nodeExtentCount    = 64
	nodeMaxMemEntries  = 128
	nodeAutoFlush      = 64
	nodeTraceCap       = 64
	nodeSlowThreshold  = 20 * time.Millisecond

	// nodeBytes is the node's raw capacity.
	nodeBytes = nodeDisks * nodeExtentCount * nodePagesPerExtent * nodePageSize
)

// node is one in-process storage node: a store per disk behind the RPC v2
// server, all recording into one node-wide registry.
type node struct {
	obs    *obs.Obs
	stores []*store.Store
	srv    *rpc.Server
	addr   string
}

func startNode() (*node, error) {
	o := obs.New(obs.NewWallClock())
	o.WithSpans(nodeTraceCap, uint64(nodeSlowThreshold))
	n := &node{obs: o}
	for i := 0; i < nodeDisks; i++ {
		cfg := store.Config{Seed: int64(i + 1), Obs: o}
		cfg.Disk.PageSize = nodePageSize
		cfg.Disk.PagesPerExtent = nodePagesPerExtent
		cfg.Disk.ExtentCount = nodeExtentCount
		cfg.MaxMemEntries = nodeMaxMemEntries
		cfg.AutoFlushThreshold = nodeAutoFlush
		st, _, err := store.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("disk %d: %w", i, err)
		}
		n.stores = append(n.stores, st)
	}
	if err := n.serve(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *node) serve() error {
	n.srv = rpc.NewServer(n.stores, n.obs)
	addr, err := n.srv.Serve("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	n.addr = addr
	return nil
}

func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
	}
}

// preloadBatch is the number of keys per MPut while preloading.
const preloadBatch = 64

// preload writes version 0 of every key through the RPC batch put, then
// drives every store to quiescence, so the whole live set is durable before
// measuring starts.
func (n *node) preload(ctx context.Context, seed int64, keys, size, clients int) error {
	c, err := rpc.DialContext(ctx, n.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ids := make([]string, 0, preloadBatch)
	vals := make([][]byte, preloadBatch)
	for i := range vals {
		vals[i] = make([]byte, size)
	}
	for start := 0; start < keys; start += preloadBatch {
		ids = ids[:0]
		for k := start; k < keys && k < start+preloadBatch; k++ {
			ids = append(ids, keyName(k))
			encodeValue(vals[len(ids)-1], seed, ids[len(ids)-1], k%clients, 0)
		}
		errs, err := c.MPut(ctx, ids, vals[:len(ids)])
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i, e := range errs {
			if e != nil {
				return fmt.Errorf("preload %s: %w", ids[i], e)
			}
		}
		if (start/preloadBatch)%16 == 15 {
			if err := n.pump(); err != nil {
				return err
			}
		}
	}
	return n.pump()
}

func (n *node) pump() error {
	for i, st := range n.stores {
		if err := st.Pump(); err != nil {
			return fmt.Errorf("disk %d pump: %w", i, err)
		}
	}
	return nil
}

// usedBytes is the extent bytes in use across the node: the write pointer
// of every allocated extent.
func (n *node) usedBytes() int64 {
	var used int64
	for _, st := range n.stores {
		em := st.Extents()
		for e := 0; e < em.ExtentCount(); e++ {
			if em.OwnerOf(disk.ExtentID(e)) != extent.OwnerFree {
				used += int64(em.Pointer(disk.ExtentID(e)))
			}
		}
	}
	return used
}

// durabilityResult is what crash-and-reopen found.
type durabilityResult struct {
	checked   int
	lost      int
	firstLost string
	openMs    []float64
}

// crashAndVerify crashes every store with a seeded tear of its write cache,
// reopens each on the same disk, and reads back every key through a fresh
// server. A key must hold a version between its last acknowledged and its
// last attempted put; anything else is a lost acknowledged write.
func (n *node) crashAndVerify(ctx context.Context, seed int64, states [][]keyState, clients int) (durabilityResult, error) {
	var res durabilityResult
	n.close()
	for i, st := range n.stores {
		st.Crash(rand.New(rand.NewSource(splitmix(seed, uint64(1000+i)))))
		t0 := time.Now()
		re, err := store.Open(st.Disk(), st.Config())
		if err != nil {
			return res, fmt.Errorf("disk %d reopen: %w", i, err)
		}
		res.openMs = append(res.openMs, float64(time.Since(t0))/float64(time.Millisecond))
		n.stores[i] = re
	}
	if err := n.serve(); err != nil {
		return res, err
	}
	c, err := rpc.DialContext(ctx, n.addr)
	if err != nil {
		return res, err
	}
	defer c.Close()
	keys := len(states[0]) * clients
	const batch = 256
	ids := make([]string, 0, batch)
	for start := 0; start < keys; start += batch {
		ids = ids[:0]
		for k := start; k < keys && k < start+batch; k++ {
			ids = append(ids, keyName(k))
		}
		got, err := c.MGet(ctx, ids)
		if err != nil {
			return res, fmt.Errorf("read back: %w", err)
		}
		for i, r := range got {
			k := start + i
			want := states[k%clients][k/clients]
			res.checked++
			var v uint64
			err := r.Err
			if err == nil {
				v, err = decodeValue(r.Value, ids[i])
			}
			if err == nil && !want.admits(v) {
				err = fmt.Errorf("%s holds version %d, acknowledged %d, last tried %d", ids[i], v, want.acked, want.tried)
			}
			if err != nil {
				if res.lost == 0 {
					res.firstLost = err.Error()
				}
				res.lost++
			}
		}
	}
	return res, nil
}

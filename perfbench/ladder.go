package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/server"
	"grub/internal/shard"
)

// The ladder replays a workload's own op stream in a closed loop, one
// caller, through adjacent public entry points. The write rungs are
// core.ApplyOps -> ShardedFeed.Do -> Gateway.Do -> Client.Do on a lone
// node -> Client.Do to the cluster owner -> Client.Do to the non-owner;
// the read rungs are query.Engine.Get -> Client.Get -> VerifyingClient.Get
// on the owner -> VerifyingClient.Get on the replica. A layer's cost is the
// difference between adjacent rungs. The in-process rungs run before the
// cluster starts, so its background work does not land in them.

// rungBudget bounds one rung's measured time.
const rungBudget = 700 * time.Millisecond

type ladderOp struct {
	feed int
	ops  []core.Op // write rungs
	key  string    // read rungs
}

// ladderOps flattens the first window's requests of one kind, in due order
// across lanes.
func ladderOps(g *stream, kind reqKind) []ladderOp {
	var out []ladderOp
	var idx [lanes]int
	p := g.Windows[0]
	for {
		best := -1
		for l := range p.Lanes {
			for idx[l] < len(p.Lanes[l]) && p.Lanes[l][idx[l]].Kind != kind {
				idx[l]++
			}
			if idx[l] < len(p.Lanes[l]) && (best < 0 || p.Lanes[l][idx[l]].Due < p.Lanes[best][idx[best]].Due) {
				best = l
			}
		}
		if best < 0 {
			return out
		}
		r := p.Lanes[best][idx[best]]
		out = append(out, ladderOp{feed: r.Feed, ops: r.Ops, key: r.Key})
		idx[best]++
	}
}

// rung times step over the op list, cycling, until rungBudget elapses, and
// records wall time, CPU, allocations and bytes per op.
func rung(m map[string]metric, name string, list []ladderOp, step func(ladderOp) error) error {
	if len(list) == 0 {
		return fmt.Errorf("rung %s: no ops", name)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	ops := 0
	for i := 0; i == 0 || time.Since(start) < rungBudget; i++ {
		op := list[i%len(list)]
		if err := step(op); err != nil {
			return fmt.Errorf("rung %s: %w", name, err)
		}
		if op.ops != nil {
			ops += len(op.ops)
		} else {
			ops++
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	n := float64(ops)
	p := "ladder." + name + "."
	m[p+"ns_per_op"] = metric{float64(wall.Nanoseconds()) / n, "ns"}
	m[p+"cpu_us_per_op"] = metric{float64(cpu.Nanoseconds()) / 1e3 / n, "us"}
	m[p+"allocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / n, "count"}
	m[p+"bytes_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / n, "B"}
	return nil
}

// ladderLocal measures the in-process rungs and the lone-node HTTP rungs.
func ladderLocal(cfg runConfig, s spec, g *stream, m map[string]metric) error {
	writes, reads := ladderOps(g, kindBatch), ladderOps(g, kindGet)

	// core: each batch pre-split by shard, applied to per-shard feeds.
	feeds := make([][]*core.Feed, len(g.Feeds))
	for f, fc := range g.Feeds {
		for i := 0; i < max(fc.Shards, 1); i++ {
			x, err := server.NewFeed(fc)
			if err != nil {
				return err
			}
			feeds[f] = append(feeds[f], x)
		}
		for _, b := range g.Preload[f] {
			for sh, part := range split(b, len(feeds[f])) {
				core.ApplyOps(feeds[f][sh], part)
			}
		}
	}
	parts := make([][][]core.Op, len(writes))
	for i, w := range writes {
		parts[i] = split(w.ops, len(feeds[w.feed]))
	}
	next := 0
	err := rung(m, "core", writes, func(op ladderOp) error {
		for sh, part := range parts[next%len(parts)] {
			core.ApplyOps(feeds[op.feed][sh], part)
		}
		next++
		return nil
	})
	feeds = nil
	if err != nil {
		return err
	}

	// shard: the sharded feed engine, in memory.
	sfs := make([]*shard.ShardedFeed, len(g.Feeds))
	for f, fc := range g.Feeds {
		sf, err := server.NewShardedFeed(fc)
		if err != nil {
			return err
		}
		sfs[f] = sf
		for _, b := range g.Preload[f] {
			if _, err := sf.Do(b); err != nil {
				return err
			}
		}
	}
	err = rung(m, "shard", writes, func(op ladderOp) error {
		_, err := sfs[op.feed].Do(op.ops)
		return err
	})
	for _, sf := range sfs {
		sf.Close()
	}
	if err != nil {
		return err
	}

	// gateway and http: one gateway with the workload's persistence,
	// called in process and then over loopback HTTP; query and get read
	// the same gateway.
	dir, err := runDir(cfg.root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := server.GatewayOptions{}
	if s.persist {
		opts = server.GatewayOptions{DataDir: filepath.Join(dir, "lone"), SnapshotEvery: 256}
	}
	gw, err := server.NewGatewayWithOptions(opts)
	if err != nil {
		return err
	}
	defer gw.Close()
	for f, fc := range g.Feeds {
		if err := gw.CreateFeed(fc); err != nil {
			return err
		}
		for _, b := range g.Preload[f] {
			if _, err := gw.Do(fc.ID, b); err != nil {
				return err
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.NewHandlerConfig(gw, server.HandlerConfig{MaxBodyBytes: server.DefaultMaxBodyBytes})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	cl := server.NewClient("http://" + ln.Addr().String())
	cl.HTTP = &http.Client{Transport: &http.Transport{}}
	defer cl.HTTP.CloseIdleConnections()

	id := func(f int) string { return g.Feeds[f].ID }
	if err := rung(m, "gateway", writes, func(op ladderOp) error {
		_, err := gw.Do(id(op.feed), op.ops)
		return err
	}); err != nil {
		return err
	}
	if err := rung(m, "http", writes, func(op ladderOp) error {
		_, err := cl.Do(id(op.feed), op.ops)
		return err
	}); err != nil {
		return err
	}
	engines := make([]*query.Engine, len(g.Feeds))
	for f := range g.Feeds {
		if engines[f], err = gw.Query(id(f)); err != nil {
			return err
		}
	}
	if err := rung(m, "query", reads, func(op ladderOp) error {
		_, err := engines[op.feed].Get(op.key)
		return err
	}); err != nil {
		return err
	}
	if err := rung(m, "get", reads, func(op ladderOp) error {
		_, err := cl.Get(id(op.feed), op.key)
		return err
	}); err != nil {
		return err
	}
	return nil
}

// split partitions a batch by shard, keeping each shard's op order.
func split(ops []core.Op, shards int) [][]core.Op {
	out := make([][]core.Op, shards)
	for _, op := range ops {
		sh := query.ShardOf(op.Key, shards)
		out[sh] = append(out[sh], op)
	}
	return out
}

// ladderCluster measures the cluster rungs on the measured cluster, after
// its output checks.
func ladderCluster(ss *session, g *stream, m map[string]metric) error {
	writes, reads := ladderOps(g, kindBatch), ladderOps(g, kindGet)
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	var w [2]*server.Client
	var v [2]*server.VerifyingClient
	for i, mb := range ss.c.m {
		w[i] = server.NewClient(mb.url)
		v[i] = server.NewVerifyingClient(mb.url)
		w[i].HTTP, v[i].HTTP = hc, hc
		for f, fc := range g.Feeds {
			if _, err := v[i].Get(fc.ID, ss.anyKey(f)); err != nil {
				return err
			}
		}
	}
	id := func(f int) string { return g.Feeds[f].ID }
	steps := []struct {
		name string
		list []ladderOp
		step func(ladderOp) error
	}{
		{"owner", writes, func(op ladderOp) error {
			_, err := w[ss.c.owner[op.feed]].Do(id(op.feed), op.ops)
			return err
		}},
		{"forward", writes, func(op ladderOp) error {
			_, err := w[ss.c.replica(op.feed)].Do(id(op.feed), op.ops)
			return err
		}},
		{"verify", reads, func(op ladderOp) error {
			_, err := v[ss.c.owner[op.feed]].Get(id(op.feed), op.key)
			return err
		}},
		{"verify_replica", reads, func(op ladderOp) error {
			_, err := v[ss.c.replica(op.feed)].Get(id(op.feed), op.key)
			return err
		}},
	}
	for _, st := range steps {
		if err := rung(m, st.name, st.list, st.step); err != nil {
			return err
		}
	}
	return nil
}

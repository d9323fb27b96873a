package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/shard"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

// RunPersist measures what durability costs and what it buys: first
// throughput on the same sharded feed with the write-ahead log off vs on
// (the log-then-apply overhead on the hot path), then recovery time as a
// function of log length — cold replay of the whole log vs reopening right
// after a snapshot. Recovery is exercised with a real crash (Kill: no final
// snapshot, no flush) followed by a fresh engine open on the same store.
// An explicit snapshot of the preloaded WAL-mode feed also reports what a
// snapshot costs at the experiment's record count: summed shard time and
// record bytes per 1k records.
func RunPersist(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		shards   = 4
		batchOps = 16
		epochOps = 8
	)
	records := cfg.scaled(256, 32)
	clients := cfg.scaled(16, 4)
	batches := cfg.scaled(16, 2)

	build := func(int) (*core.Feed, error) {
		c := chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
		return core.NewFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: epochOps}), nil
	}
	persistOpts := func(dir string) *shard.PersistOptions {
		return &shard.PersistOptions{
			Dir: dir,
			Restore: func(_ int, snap *core.FeedSnapshot) (*core.Feed, error) {
				c := chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
				return core.RestoreFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: epochOps}, snap)
			},
		}
	}

	hammer := func(sf *shard.ShardedFeed) (int, time.Duration, error) {
		preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadB, records, 32, cfg.Seed).Preload())
		if _, err := sf.Do(preload); err != nil {
			return 0, 0, err
		}
		var wg sync.WaitGroup
		errc := make(chan error, clients)
		start := time.Now()
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				d := ycsb.NewDriver(ycsb.WorkloadB, records, 32, cfg.Seed+uint64(ci+1)*7919)
				for b := 0; b < batches; b++ {
					if _, err := sf.Do(core.FromWorkload(d.Generate(batchOps))); err != nil {
						errc <- err
						return
					}
				}
			}(ci)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			return 0, 0, err
		}
		return clients * batches * batchOps, time.Since(start), nil
	}

	fmt.Fprintf(cfg.W, "persist: %d shards, %d clients x %d batches x %d ops (YCSB-B, %d records)\n\n",
		shards, clients, batches, batchOps, records)
	fmt.Fprintf(cfg.W, "%-16s %10s %12s %12s\n", "mode", "ops", "elapsed", "ops/sec")

	var memOps float64
	for _, mode := range []string{"memory", "wal"} {
		opts := shard.Options{Shards: shards}
		var dir string
		if mode == "wal" {
			d, err := os.MkdirTemp("", "grub-persist-bench")
			if err != nil {
				return err
			}
			defer os.RemoveAll(d)
			dir = d
			opts.Persist = persistOpts(dir)
		}
		sf, err := shard.New(opts, build)
		if err != nil {
			return err
		}
		ops, elapsed, err := hammer(sf)
		if err != nil {
			sf.Close()
			return err
		}
		opsPerSec := float64(ops) / elapsed.Seconds()
		fmt.Fprintf(cfg.W, "%-16s %10d %12v %12.0f\n", mode, ops, elapsed.Round(time.Millisecond), opsPerSec)
		cfg.metric(mode+".opsPerSec", opsPerSec)
		if mode == "memory" {
			memOps = opsPerSec
		} else if memOps > 0 {
			overhead := (memOps - opsPerSec) / memOps * 100
			fmt.Fprintf(cfg.W, "\nWAL overhead: %.1f%% of in-memory throughput\n", overhead)
			cfg.metric("walOverheadPct", overhead)
		}
		if mode == "wal" {
			err = reportSnapshotCost(cfg, sf)
		}
		sf.Close()
		if err != nil {
			return err
		}
	}

	// Recovery time vs log length: crash after 1x, 2x, 4x the base batch
	// count with no snapshots (pure log replay), then snapshot and crash
	// again (replay-free reopen).
	fmt.Fprintf(cfg.W, "\n%-20s %12s %14s\n", "crash after", "log batches", "recovery")
	base := cfg.scaled(8, 2)
	d := ycsb.NewDriver(ycsb.WorkloadB, records, 32, cfg.Seed+1)
	for _, mult := range []int{1, 2, 4} {
		dir, err := os.MkdirTemp("", "grub-persist-recovery")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts := shard.Options{Shards: shards, Persist: persistOpts(dir)}
		sf, err := shard.New(opts, build)
		if err != nil {
			return err
		}
		n := base * mult
		for b := 0; b < n; b++ {
			if _, err := sf.Do(core.FromWorkload(d.Generate(batchOps))); err != nil {
				sf.Close()
				return err
			}
		}
		sf.Kill() // crash: recovery must replay the whole log

		start := time.Now()
		recovered, err := shard.New(opts, build)
		if err != nil {
			return err
		}
		coldRecovery := time.Since(start)
		fmt.Fprintf(cfg.W, "%-20s %12d %14v\n",
			fmt.Sprintf("%d batches (no snap)", n), n, coldRecovery.Round(time.Microsecond))
		cfg.metric(fmt.Sprintf("recovery.%dbatches.ms", n), float64(coldRecovery.Microseconds())/1000)

		if mult == 4 {
			// Snapshot, crash again: the reopen replays nothing.
			if _, err := recovered.Snapshot(); err != nil {
				recovered.Close()
				return err
			}
			recovered.Kill()
			start = time.Now()
			warm, err := shard.New(opts, build)
			if err != nil {
				return err
			}
			warmRecovery := time.Since(start)
			warm.Close()
			fmt.Fprintf(cfg.W, "%-20s %12d %14v\n", "after snapshot", 0, warmRecovery.Round(time.Microsecond))
			cfg.metric("recovery.snapshot.ms", float64(warmRecovery.Microseconds())/1000)
		} else {
			recovered.Close()
		}
	}
	fmt.Fprintln(cfg.W, "\n(recovery replays the per-shard op log through the deterministic feed;")
	fmt.Fprintln(cfg.W, " snapshots trade a state write at runtime for replay-free restarts)")
	return nil
}

// reportSnapshotCost takes an explicit snapshot of every shard and reports
// the shards' summed snapshot time (encode, write, log prune, checkpoint)
// and record bytes, per 1k of the feed's records.
func reportSnapshotCost(cfg Config, sf *shard.ShardedFeed) error {
	before, err := sf.Stats()
	if err != nil {
		return err
	}
	if _, err := sf.Snapshot(); err != nil {
		return err
	}
	after, err := sf.Stats()
	if err != nil {
		return err
	}
	var ms, bytes float64
	for i, s := range after.PerShard {
		ms += (s.Persist.SnapshotSeconds - before.PerShard[i].Persist.SnapshotSeconds) * 1000
		bytes += float64(s.Persist.LastSnapshotBytes)
	}
	per1k := 1000 / float64(max(after.Feed.Records, 1))
	fmt.Fprintf(cfg.W, "snapshot of %d records: %.3f ms, %.0f bytes (%.3f ms, %.0f bytes per 1k records)\n",
		after.Feed.Records, ms, bytes, ms*per1k, bytes*per1k)
	cfg.metric("snapshot.msPer1kRecords", ms*per1k)
	cfg.metric("snapshot.bytesPer1kRecords", bytes*per1k)
	return nil
}

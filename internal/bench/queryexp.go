package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/query"
	"grub/internal/shard"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

// minQueryPhase is the shortest measured read phase.
const minQueryPhase = 100 * time.Millisecond

// RunQuery measures the authenticated read path against the worker read
// path on the same sharded feed, under a sustained concurrent write load in
// both phases. Worker-path reads serialize through the per-shard
// single-writer workers and pay the full simulated read protocol (request
// event, deliver transaction, verification) per op; query-path reads are
// served from the immutable per-shard views with a fresh Merkle proof
// assembled — and client-side verified — per op, never touching the
// workers. It reports ops/sec for both paths, the resulting speedup, and
// the proof bytes each verified read carried.
func RunQuery(cfg Config) error {
	cfg = cfg.withDefaults()
	const shards = 4
	const batchOps = 16
	records := cfg.scaled(256, 32)
	readers := cfg.scaled(16, 4)
	batches := cfg.scaled(16, 2)
	readsPer := batches * batchOps

	build := func(int) (*core.Feed, error) {
		c := chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
		return core.NewFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: 8}), nil
	}
	sf, err := shard.New(shard.Options{Shards: shards, Views: true}, build)
	if err != nil {
		return err
	}
	defer sf.Close()

	preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadB, records, 32, cfg.Seed).Preload())
	if _, err := sf.Do(preload); err != nil {
		return err
	}
	keys := make([]string, 0, len(preload))
	for _, op := range preload {
		keys = append(keys, op.Key)
	}

	// Sustained write load for the duration of one read phase: the views
	// keep republishing underneath the readers, which is exactly the
	// snapshot-isolation regime the engine exists for.
	startWrites := func() (stop func() error) {
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			defer close(errc)
			r := sim.NewRand(cfg.Seed + 99)
			for {
				select {
				case <-done:
					return
				default:
				}
				ops := make([]core.Op, batchOps)
				for i := range ops {
					ops[i] = core.Op{Type: "write", Key: keys[r.Intn(len(keys))], Value: []byte("rewritten")}
				}
				if _, err := sf.Do(ops); err != nil {
					errc <- err
					return
				}
			}
		}()
		return func() error {
			close(done)
			return <-errc
		}
	}

	// phase runs the readers concurrently under a sustained write load.
	// Each reader repeats rounds until minQueryPhase has elapsed — a fixed
	// op count finishes in about a millisecond at smoke scale, too short to
	// compare the two paths — and phase returns the ops completed and the
	// elapsed time.
	phase := func(seedMul uint64, round func(r *sim.Rand) error) (int, time.Duration, error) {
		stop := startWrites()
		var (
			wg  sync.WaitGroup
			ops atomic.Int64
		)
		errc := make(chan error, readers)
		start := time.Now()
		for ri := 0; ri < readers; ri++ {
			wg.Add(1)
			go func(ri int) {
				defer wg.Done()
				r := sim.NewRand(cfg.Seed + uint64(ri+1)*seedMul)
				for first := true; first || time.Since(start) < minQueryPhase; first = false {
					if err := round(r); err != nil {
						errc <- err
						return
					}
					ops.Add(int64(readsPer))
				}
			}(ri)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errc)
		if err := stop(); err != nil {
			return 0, 0, err
		}
		for err := range errc {
			return 0, 0, err
		}
		return int(ops.Load()), elapsed, nil
	}

	fmt.Fprintf(cfg.W, "query: verified-read vs worker-path read, %d readers x rounds of %d reads for >= %v (%d records, %d shards, writes sustained)\n\n",
		readers, readsPer, minQueryPhase, records, shards)
	fmt.Fprintf(cfg.W, "%-16s %10s %12s %12s %14s\n", "path", "ops", "elapsed", "ops/sec", "proof B/op")

	// Phase 1: worker-path reads (batched through Do, like any client).
	workerOps, workerElapsed, err := phase(7919, func(r *sim.Rand) error {
		for b := 0; b < batches; b++ {
			ops := make([]core.Op, batchOps)
			for i := range ops {
				ops[i] = core.Op{Type: "read", Key: keys[r.Intn(len(keys))]}
			}
			if _, err := sf.Do(ops); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	workerRate := float64(workerOps) / workerElapsed.Seconds()
	fmt.Fprintf(cfg.W, "%-16s %10d %12v %12.0f %14s\n",
		"worker", workerOps, workerElapsed.Round(time.Millisecond), workerRate, "-")

	// Phase 2: verified reads off the published views (one in four reads
	// a missing key, exercising absence proofs).
	engine := sf.Engine()
	var proofBytes atomic.Int64
	verifiedOps, verifiedElapsed, err := phase(104729, func(r *sim.Rand) error {
		for i := 0; i < readsPer; i++ {
			key := keys[r.Intn(len(keys))]
			if i%4 == 3 {
				key = fmt.Sprintf("ghost-%d", r.Intn(1<<16))
			}
			res, err := engine.Get(key)
			if err != nil {
				return err
			}
			if err := query.VerifyGet(key, res); err != nil {
				return fmt.Errorf("verified read rejected: %w", err)
			}
			proofBytes.Add(int64(res.ProofBytes()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	verifiedRate := float64(verifiedOps) / verifiedElapsed.Seconds()
	bytesPerOp := float64(proofBytes.Load()) / float64(verifiedOps)
	fmt.Fprintf(cfg.W, "%-16s %10d %12v %12.0f %14.0f\n",
		"verified", verifiedOps, verifiedElapsed.Round(time.Millisecond), verifiedRate, bytesPerOp)

	speedup := 0.0
	if workerRate > 0 {
		speedup = verifiedRate / workerRate
	}
	fmt.Fprintf(cfg.W, "\nverified reads run %.1fx the worker path (proofs assembled off immutable views; workers untouched)\n", speedup)
	cfg.metric("worker.opsPerSec", workerRate)
	cfg.metric("verified.opsPerSec", verifiedRate)
	cfg.metric("verified.speedup", speedup)
	cfg.metric("verified.proofBytesPerOp", bytesPerOp)
	return nil
}

package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"grub/internal/core"
	"grub/internal/workload/ycsb"
)

const persistEpochOps = 8

// persistOptions builds the standard persistent configuration for a test
// store at dir: memoryless K=2 feeds (matching newTestFeed) with the restore
// callback the gateway would supply.
func persistOptions(dir string, shards, snapshotEvery int, record bool) Options {
	return Options{
		Shards:      shards,
		RecordTrace: record,
		Persist:     &PersistOptions{Dir: dir, SnapshotEvery: snapshotEvery},
		Restore:     restoreTestFeed(persistEpochOps),
	}
}

func newPersistent(t *testing.T, dir string, shards, snapshotEvery int, record bool) *ShardedFeed {
	t.Helper()
	sf, err := New(persistOptions(dir, shards, snapshotEvery, record),
		func(int) (*core.Feed, error) { return newTestFeed(persistEpochOps) })
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

// persistBatches generates a deterministic sequence of YCSB-A batches, the
// same for every feed instance a test drives.
func persistBatches(n, opsPer int, seed uint64) [][]core.Op {
	d := ycsb.NewDriver(ycsb.WorkloadA, 24, 32, seed)
	out := make([][]core.Op, n)
	for i := range out {
		out[i] = core.FromWorkload(d.Generate(opsPer))
	}
	return out
}

// keysOf collects every key the batches touch, for the final read-back
// comparison.
func keysOf(batches [][]core.Op) []core.Op {
	seen := make(map[string]bool)
	var reads []core.Op
	for _, b := range batches {
		for _, op := range b {
			if !seen[op.Key] {
				seen[op.Key] = true
				reads = append(reads, core.Op{Type: "read", Key: op.Key})
			}
		}
	}
	return reads
}

func requireSameResults(t *testing.T, label string, got, want []core.OpResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Found != want[i].Found ||
			!bytes.Equal(got[i].Value, want[i].Value) || got[i].Err != want[i].Err {
			t.Fatalf("%s: result %d diverges: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestPersistCrashRecoveryEquivalence is the headline durability result:
// kill the engine mid-load at several points, reopen the store, finish the
// load, and the recovered feed must match an uninterrupted single-process
// run of the same batch sequence exactly — every key's value, cumulative
// gas, delivered counts, chain height. Exercised with and without
// intervening snapshots (snapshot restore vs pure log replay).
func TestPersistCrashRecoveryEquivalence(t *testing.T) {
	const totalBatches = 16
	for _, shards := range []int{1, 4} {
		for _, snapEvery := range []int{0, 3} {
			for _, cut := range []int{3, 8, 13} {
				name := fmt.Sprintf("shards=%d/snapEvery=%d/cut=%d", shards, snapEvery, cut)
				t.Run(name, func(t *testing.T) {
					batches := persistBatches(totalBatches, 8, 42)

					// The uninterrupted reference: same engine, no
					// persistence, one process, all batches.
					ref := newSharded(t, shards, persistEpochOps, false)
					for _, b := range batches {
						if _, err := ref.Do(b); err != nil {
							t.Fatal(err)
						}
					}

					dir := t.TempDir()
					crashed := newPersistent(t, dir, shards, snapEvery, false)
					for _, b := range batches[:cut] {
						if _, err := crashed.Do(b); err != nil {
							t.Fatal(err)
						}
					}
					crashed.Kill() // no final snapshot, no flush

					recovered := newPersistent(t, dir, shards, snapEvery, false)
					defer recovered.Close()
					for _, b := range batches[cut:] {
						if _, err := recovered.Do(b); err != nil {
							t.Fatal(err)
						}
					}

					// Same keys, same values: an identical read-back batch
					// must answer identically (and mutate both identically).
					readback := keysOf(batches)
					gotR, err := recovered.Do(readback)
					if err != nil {
						t.Fatal(err)
					}
					wantR, err := ref.Do(readback)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResults(t, "read-back", gotR, wantR)

					// Same cumulative gas, delivered counts, records,
					// replicas, chain position — per shard and aggregate.
					got, err := recovered.Stats()
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Stats()
					if err != nil {
						t.Fatal(err)
					}
					if got.Feed != want.Feed {
						t.Errorf("aggregate stats diverge:\n got %+v\nwant %+v", got.Feed, want.Feed)
					}
					if got.Ops != want.Ops {
						t.Errorf("ops = %d, want %d", got.Ops, want.Ops)
					}
					for i := range want.PerShard {
						if got.PerShard[i].Feed != want.PerShard[i].Feed {
							t.Errorf("shard %d stats diverge:\n got %+v\nwant %+v",
								i, got.PerShard[i].Feed, want.PerShard[i].Feed)
						}
					}
					if snapEvery > 0 {
						if got.Persist == nil || got.Persist.Snapshots == 0 {
							t.Errorf("expected snapshots to have been taken: %+v", got.Persist)
						}
					}
				})
			}
		}
	}
}

// TestPersistConcurrentCrashRecovery drives a persistent sharded feed from
// many concurrent clients, crashes it, recovers, keeps driving, and then
// requires the recovered trace to replay exactly — PR 2's equivalence
// discipline extended across a process death. Run under -race this is also
// the data-race check on the persistence hooks.
func TestPersistConcurrentCrashRecovery(t *testing.T) {
	const (
		shards   = 4
		clients  = 16
		batchesA = 3 // per client before the crash
		batchesB = 2 // per client after recovery
	)
	dir := t.TempDir()
	hammer := func(sf *ShardedFeed, rounds, seedBase int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				d := ycsb.NewDriver(ycsb.WorkloadA, 24, 32, uint64(seedBase+ci))
				for b := 0; b < rounds; b++ {
					if _, err := sf.Do(core.FromWorkload(d.Generate(8))); err != nil {
						errs <- err
						return
					}
				}
			}(ci)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	crashed := newPersistent(t, dir, shards, 0, true)
	hammer(crashed, batchesA, 1000)
	crashed.Kill()

	recovered := newPersistent(t, dir, shards, 0, true)
	defer recovered.Close()
	hammer(recovered, batchesB, 5000)

	// The recovered feed's trace is the full serialized order: the log
	// replayed at recovery plus everything applied since. Replaying it per
	// shard through fresh feeds must reproduce results and stats exactly.
	traces, err := recovered.ShardTraces()
	if err != nil {
		t.Fatal(err)
	}
	_, recorded, err := recovered.TraceResults()
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantOps := clients * (batchesA + batchesB) * 8
	if got.Ops != wantOps {
		t.Errorf("ops = %d, want %d", got.Ops, wantOps)
	}
	ri := 0
	var wantAgg core.FeedStats
	for sh, trace := range traces {
		ref, err := newTestFeed(persistEpochOps)
		if err != nil {
			t.Fatal(err)
		}
		replayed := core.ApplyOps(ref, trace)
		for j, res := range replayed {
			rec := recorded[ri]
			ri++
			if res.Key != rec.Key || res.Found != rec.Found ||
				!bytes.Equal(res.Value, rec.Value) || res.Err != rec.Err {
				t.Fatalf("shard %d op %d: replay %+v != recorded %+v", sh, j, res, rec)
			}
		}
		want := ref.Stats()
		if got.PerShard[sh].Feed != want {
			t.Errorf("shard %d stats diverge from replay:\n got %+v\nwant %+v", sh, got.PerShard[sh].Feed, want)
		}
		wantAgg = addFeedStats(wantAgg, want)
	}
	if got.Feed != wantAgg {
		t.Errorf("aggregate stats diverge from summed replays:\n got %+v\nwant %+v", got.Feed, wantAgg)
	}
}

// TestPersistTornTailRecovery kills the engine, then tears the final WAL
// record of one shard's store (a crash mid-write). Recovery must come up on
// the intact logged prefix and still replay-match exactly.
func TestPersistTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	batches := persistBatches(6, 8, 7)
	crashed := newPersistent(t, dir, 1, 0, false)
	for _, b := range batches {
		if _, err := crashed.Do(b); err != nil {
			t.Fatal(err)
		}
	}
	crashed.Kill()

	wal := filepath.Join(dir, "shard-000", "wal.log")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 10 {
		t.Fatalf("wal too small to tear: %d bytes", fi.Size())
	}
	if err := os.Truncate(wal, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	recovered := newPersistent(t, dir, 1, 0, true)
	defer recovered.Close()
	trace, err := recovered.Trace()
	if err != nil {
		t.Fatal(err)
	}
	// The torn record is the last logged batch: the recovered trace must be
	// a whole-batch prefix, one batch short.
	if want := (len(batches) - 1) * 8; len(trace) != want {
		t.Fatalf("recovered trace has %d ops, want %d (one torn batch dropped)", len(trace), want)
	}
	ref, err := newTestFeed(persistEpochOps)
	if err != nil {
		t.Fatal(err)
	}
	core.ApplyOps(ref, trace)
	st, err := recovered.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PerShard[0].Feed != ref.Stats() {
		t.Errorf("recovered state diverges from replay of intact prefix:\n got %+v\nwant %+v",
			st.PerShard[0].Feed, ref.Stats())
	}
}

// TestPersistSnapshotCompaction checks the snapshot cadence: the op log is
// pruned at each snapshot, counters survive a graceful close/reopen, and
// explicit Snapshot works (and is refused on an in-memory feed).
func TestPersistSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	batches := persistBatches(7, 8, 11)
	sf := newPersistent(t, dir, 2, 2, false)
	for _, b := range batches {
		if _, err := sf.Do(b); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Persist == nil {
		t.Fatal("persistent feed reports no persist stats")
	}
	if st.Persist.Snapshots == 0 {
		t.Errorf("no automatic snapshots after %d batches at cadence 2", len(batches))
	}
	ps, err := sf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ps.LoggedBatches != 0 {
		t.Errorf("log not compacted by explicit snapshot: %+v", ps)
	}
	sf.Close()

	reopened := newPersistent(t, dir, 2, 2, false)
	defer reopened.Close()
	st2, err := reopened.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ops != st.Ops || st2.Feed != st.Feed {
		t.Errorf("counters did not survive graceful close/reopen:\n got %+v ops=%d\nwant %+v ops=%d",
			st2.Feed, st2.Ops, st.Feed, st.Ops)
	}
	if st2.Persist.Snapshots < st.Persist.Snapshots {
		t.Errorf("snapshot count went backwards: %d -> %d", st.Persist.Snapshots, st2.Persist.Snapshots)
	}

	mem := newSharded(t, 1, persistEpochOps, false)
	if _, err := mem.Snapshot(); !errors.Is(err, ErrNotPersistent) {
		t.Errorf("Snapshot on in-memory feed = %v, want ErrNotPersistent", err)
	}
}

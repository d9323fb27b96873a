package core

import (
	"fmt"
	"reflect"
	"testing"

	"grub/internal/chain"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
)

// snapTrace builds a deterministic mixed trace: interleaved writes, repeated
// reads (to trigger promotions), fresh-key reads (absence proofs) and value
// rewrites (demotions).
func snapTrace(n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i%7)
		switch i % 5 {
		case 0, 3:
			ops = append(ops, Op{Type: "write", Key: key, Value: []byte(fmt.Sprintf("v%d", i))})
		case 4:
			ops = append(ops, Op{Type: "read", Key: fmt.Sprintf("missing%d", i)})
		default:
			ops = append(ops, Op{Type: "read", Key: key})
		}
	}
	return ops
}

// randTrace builds a seeded random trace over a small key space: writes to
// existing and fresh keys, bursts of repeated reads on a hot set (so
// policies promote, and with a replica budget the LRU evicts), reads of
// keys never written (absence proofs) and scans.
func randTrace(seed uint64, n int) []Op {
	r := sim.NewRand(seed)
	ops := make([]Op, 0, n)
	for len(ops) < n {
		key := fmt.Sprintf("k%02d", r.Intn(24))
		switch x := r.Intn(100); {
		case x < 30:
			ops = append(ops, Op{Type: "write", Key: key, Value: []byte(fmt.Sprintf("v%d", len(ops)))})
		case x < 70:
			hot := fmt.Sprintf("k%02d", r.Intn(6))
			for burst := 1 + r.Intn(4); burst > 0 && len(ops) < n; burst-- {
				ops = append(ops, Op{Type: "read", Key: hot})
			}
		case x < 82:
			ops = append(ops, Op{Type: "read", Key: fmt.Sprintf("absent%d", r.Intn(8))})
		default:
			ops = append(ops, Op{Type: "scan", Key: key, ScanLen: 1 + r.Intn(4)})
		}
	}
	return ops
}

func newSnapChain() *chain.Chain {
	return chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
}

// TestSnapshotRestoreEquivalence cuts a trace at several points; at each cut
// it encodes the feed's snapshot, decodes it, restores it onto a fresh
// chain, drives the remainder of the trace through both the original and
// the restored feed, and requires identical results, stats (gas included),
// record sets, digests and delivered values. The cases cover every policy,
// a fixed 7-key trace and seeded random traces that add scans, a replica
// budget (LRU eviction reads lastTouch) and deferred promotions; cut points
// land mid-epoch (staged writes pending) and on epoch boundaries.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	policies := map[string]func() policy.Policy{
		"memoryless": func() policy.Policy { return policy.NewMemoryless(2) },
		"memorizing": func() policy.Policy { return policy.NewMemorizing(2, 1) },
		"bl1":        func() policy.Policy { return policy.Never{} },
		"bl2":        func() policy.Policy { return policy.Always{} },
	}
	// The fixed trace's subtests keep their original <policy>/cut<n> names;
	// the random variants add a path element.
	type variant struct {
		name  string
		opts  Options
		trace []Op
		cuts  []int
	}
	variants := []variant{
		{"", Options{EpochOps: 8}, snapTrace(60), []int{5, 16, 33}},
		{"rand", Options{EpochOps: 8}, randTrace(1, 160), []int{0, 8, 37, 64, 101}},
		{"rand-budget", Options{EpochOps: 8, MaxReplicas: 2}, randTrace(2, 160), []int{16, 45, 96, 133}},
		{"rand-defer", Options{EpochOps: 6, DeferPromotions: true}, randTrace(3, 160), []int{12, 29, 90}},
		{"rand-budget-defer", Options{EpochOps: 4, MaxReplicas: 3, DeferPromotions: true}, randTrace(4, 200), []int{3, 40, 121, 160}},
	}
	for _, pol := range []string{"memoryless", "memorizing", "bl1", "bl2"} {
		for _, v := range variants {
			for _, cut := range v.cuts {
				name := pol
				if v.name != "" {
					name += "/" + v.name
				}
				t.Run(fmt.Sprintf("%s/cut%d", name, cut), func(t *testing.T) {
					opts := v.opts
					opts.NoADS = pol == "bl2"
					orig := NewFeed(newSnapChain(), policies[pol](), opts)
					ApplyOps(orig, v.trace[:cut])

					data, err := orig.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					decoded, err := DecodeFeedSnapshot(data)
					if err != nil {
						t.Fatalf("Decode: %v", err)
					}
					restored, err := RestoreFeed(newSnapChain(), policies[pol](), opts, decoded)
					if err != nil {
						t.Fatalf("RestoreFeed: %v", err)
					}

					// The restored feed must already agree on everything
					// observable, and re-encode to the same state...
					requireFeedsEqual(t, "at cut", orig, restored)
					requireSnapshotsEqual(t, decoded, restored)

					// ...and keep agreeing while the rest of the trace runs
					// through both (same future decisions, same future gas).
					r1 := ApplyOps(orig, v.trace[cut:])
					r2 := ApplyOps(restored, v.trace[cut:])
					if !reflect.DeepEqual(r1, r2) {
						t.Fatalf("post-restore results diverge:\n orig %v\n rest %v", r1, r2)
					}
					requireFeedsEqual(t, "after tail", orig, restored)
				})
			}
		}
	}
}

// requireSnapshotsEqual re-encodes the restored feed and requires the same
// decoded state as the snapshot it was restored from. Policy state is
// compared by behavior (the tail replay), not bytes: its map sections are
// written in iteration order.
func requireSnapshotsEqual(t *testing.T, want *FeedSnapshot, f *Feed) {
	t.Helper()
	data, err := f.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	got, err := DecodeFeedSnapshot(data)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	w := *want
	w.Policy, got.Policy = nil, nil
	if !reflect.DeepEqual(&w, got) {
		t.Fatalf("restored feed re-encodes differently:\n want %+v\n got  %+v", &w, got)
	}
}

func requireFeedsEqual(t *testing.T, when string, a, b *Feed) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("%s: stats diverge:\n orig %+v\n rest %+v", when, sa, sb)
	}
	ra, rb := a.DO.Set().Records(), b.DO.Set().Records()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: record sets diverge:\n orig %v\n rest %v", when, ra, rb)
	}
	if !a.opts.NoADS {
		if a.DO.Set().Root() != b.DO.Set().Root() {
			t.Fatalf("%s: digests diverge", when)
		}
	}
	if !reflect.DeepEqual(a.LastValue, b.LastValue) {
		t.Fatalf("%s: delivered values diverge", when)
	}
}

// TestSnapshotRefusesPendingTx pins the quiescence guard: a transaction
// sitting in the mempool must fail the snapshot, not be silently dropped.
func TestSnapshotRefusesPendingTx(t *testing.T) {
	f := NewFeed(newSnapChain(), policy.NewMemoryless(2), Options{EpochOps: 4})
	f.Chain.Submit(&chain.Tx{From: "user", To: "du-reader", Method: "read", Args: "k", PayloadBytes: 5})
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with a pending transaction")
	}
}

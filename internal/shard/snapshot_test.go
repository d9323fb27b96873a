package shard

import (
	"fmt"
	"strings"
	"testing"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/kvstore"
	"grub/internal/obs"
	"grub/internal/policy"
	"grub/internal/sim"
)

// bigSnapshotFeed builds one memoryless shard shaped like an ingest shard:
// n records with 14-byte keys and 32-byte values, every key written (so
// the policy and LRU maps hold all n keys), then every tenth key read
// twice (promotions, delivered values).
func bigSnapshotFeed(tb testing.TB, n int) *core.Feed {
	tb.Helper()
	f, err := newTestFeed(persistEpochOps)
	if err != nil {
		tb.Fatal(err)
	}
	r := sim.NewRand(42)
	ops := make([]core.Op, 0, n)
	for i := 0; i < n; i++ {
		v := make([]byte, 32)
		for j := range v {
			v[j] = byte(r.Uint64())
		}
		ops = append(ops, core.Op{Type: "write", Key: fmt.Sprintf("user%010d", i), Value: v})
	}
	core.ApplyOps(f, ops)
	ops = ops[:0]
	for i := 0; i < n; i += 10 {
		key := fmt.Sprintf("user%010d", i)
		ops = append(ops, core.Op{Type: "read", Key: key}, core.Op{Type: "read", Key: key})
	}
	core.ApplyOps(f, ops)
	return f
}

// parentJSONSnapBytes is the size of the JSON snapshot record payload the
// previous snapshot codec wrote for bigSnapshotFeed(25000) with header
// counters ops=52500, batches=1000, baseGas=12345, snapshots=4: 4,409,649
// bytes (records base64'd, policy maps JSON-in-base64, sorted map keys).
const parentJSONSnapBytes = 4_409_649

// TestSnapshotRecordCost gates the binary codec's cost on an ingest-sized
// shard: the record must be at most 0.65x the JSON-era payload for the same
// state, and encoding must allocate a constant number of times however many
// records the feed holds (the set is walked in place, maps are encoded as
// they stand, and the buffer is sized from the previous snapshot).
func TestSnapshotRecordCost(t *testing.T) {
	big := &shardState{feed: bigSnapshotFeed(t, 25000), ops: 52500, batches: 1000, base: 12345}
	rec, err := encodeSnapshotRecord(big, 1000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := len(rec) - 9 // typed-record framing: kind byte + 8-byte seq
	t.Logf("binary snapshot payload: %d bytes (%.2fx the JSON-era %d)", payload,
		float64(payload)/parentJSONSnapBytes, parentJSONSnapBytes)
	if limit := parentJSONSnapBytes * 65 / 100; payload > limit {
		t.Errorf("snapshot payload %d bytes, want <= %d (0.65x the JSON-era payload)", payload, limit)
	}

	small := &shardState{feed: bigSnapshotFeed(t, 1000)}
	smallRec, err := encodeSnapshotRecord(small, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(st *shardState, hint int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := encodeSnapshotRecord(st, 1, 1, hint); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1k, a25k := allocs(small, len(smallRec)), allocs(big, len(rec))
	t.Logf("encode allocations: %.0f at 1k records, %.0f at 25k", a1k, a25k)
	if a25k > a1k+8 {
		t.Errorf("encoding allocates %.0f times at 25k records vs %.0f at 1k: allocations grow with the record count", a25k, a1k)
	}
}

// TestRecoverRefusesBadSnapshotRecord plants broken snapshot records — one
// written by a JSON-era build, truncated ones, a wrong format version,
// trailing garbage — in an otherwise empty store: recovery must fail with an
// error, never panic or hand back a half-restored feed. The intact record
// recovers, as a control.
func TestRecoverRefusesBadSnapshotRecord(t *testing.T) {
	feed, err := newTestFeed(persistEpochOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range persistBatches(6, 8, 3) {
		core.ApplyOps(feed, b)
	}
	good := &shardState{feed: feed, ops: 48, batches: 6, base: 7}
	rec, err := encodeSnapshotRecord(good, 6, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := rec[9:] // past the typed-record framing

	const jsonEra = `{"feed":{"chain":{"now":6,"height":6,"totalGas":90000,"txCount":6},` +
		`"records":[{"key":"user1","state":0,"value":"dg=="}],"delivered":0,"notFound":0},` +
		`"ops":48,"batches":6,"baseGas":7,"snapshots":1}`
	badVersion := append([]byte(nil), payload...)
	badVersion[snapHeaderLen] = core.SnapshotVersion + 1
	cases := []struct {
		name, want string
		payload    []byte
	}{
		{"json-era", "JSON", []byte(jsonEra)},
		{"short-header", "header", payload[:snapHeaderLen-3]},
		{"header-only", "empty", payload[:snapHeaderLen]},
		{"truncated-half", "decode", payload[:len(payload)/2]},
		{"truncated-last-byte", "decode", payload[:len(payload)-1]},
		{"trailing-byte", "trailing", append(append([]byte(nil), payload...), 0)},
		{"bad-version", "version", badVersion},
		{"intact", "", payload},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := persistOptions(dir, 1, 0, false)
			p, err := openPersister(*opts.Persist, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer p.db.Close()
			if err := p.db.Put([]byte(snapKey), kvstore.EncodeRecord(kvstore.RecordSnapshot, 6, c.payload)); err != nil {
				t.Fatal(err)
			}
			st, err := recoverShard(p, &worker{restore: opts.Restore}, opts, func(int) (*core.Feed, error) { return newTestFeed(persistEpochOps) })
			if c.want == "" {
				if err != nil {
					t.Fatalf("intact record: %v", err)
				}
				if st.feed.Stats() != feed.Stats() || st.ops != 48 || st.base != 7 {
					t.Fatalf("intact record recovered %+v ops=%d base=%d, want %+v", st.feed.Stats(), st.ops, st.base, feed.Stats())
				}
				return
			}
			if err == nil || st != nil {
				t.Fatalf("recoverShard = (%v, %v), want a nil state and an error", st, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestSnapshotCostReported checks the snapshot cost surfaces: the shard's
// PersistStat carries the last record's size and the cumulative snapshot
// time, and the node-level counters add up every shard's snapshots.
func TestSnapshotCostReported(t *testing.T) {
	reg := obs.NewRegistry()
	opts := persistOptions(t.TempDir(), 2, 0, false)
	opts.Persist.Snapshots = NewSnapshotMetrics(reg)
	sf, err := New(opts, func(int) (*core.Feed, error) { return newTestFeed(persistEpochOps) })
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for _, b := range persistBatches(4, 8, 9) {
		if _, err := sf.Do(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sf.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st, err := sf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ss := range st.PerShard {
		if ss.Persist.LastSnapshotBytes <= snapHeaderLen || ss.Persist.SnapshotSeconds <= 0 {
			t.Errorf("shard %d persist stat lacks snapshot cost: %+v", ss.Shard, ss.Persist)
		}
		total += ss.Persist.LastSnapshotBytes
	}
	if got := opts.Persist.Snapshots.Bytes.Value(); got != float64(total) {
		t.Errorf("grub_persist_snapshot_bytes_total = %v, want %d (one snapshot per shard)", got, total)
	}
	if opts.Persist.Snapshots.Seconds.Value() <= 0 {
		t.Error("grub_persist_snapshot_seconds_total did not advance")
	}
}

// FuzzDecodeFeedSnapshot feeds arbitrary bytes to both snapshot decoders —
// the feed snapshot and the full snapshot record payload. Malformed input
// must be an error, never a panic or an outsized allocation; input that
// does decode must restore (or fail to restore) without panicking, and a
// restored feed must snapshot again. Seeds are real snapshots taken at
// several points of a trace (staged writes, pending promotions, delivered
// values) and their records.
func FuzzDecodeFeedSnapshot(f *testing.F) {
	feed, err := newTestFeed(persistEpochOps)
	if err != nil {
		f.Fatal(err)
	}
	for i, b := range persistBatches(4, 6, 5) {
		core.ApplyOps(feed, b)
		data, err := feed.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		rec, err := encodeSnapshotRecord(&shardState{feed: feed, ops: 6 * (i + 1), batches: i + 1}, uint64(i+1), i+1, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec[9:])
	}
	f.Add([]byte(`{"feed":{"records":[]}}`))
	restore := func(t *testing.T, fs *core.FeedSnapshot) {
		c := chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
		restored, err := core.RestoreFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: persistEpochOps}, fs)
		if err != nil {
			return
		}
		if _, err := restored.Snapshot(); err != nil {
			t.Fatalf("restored feed cannot snapshot: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fs, err := core.DecodeFeedSnapshot(data); err == nil {
			restore(t, fs)
		}
		if _, fs, err := decodeSnapshotRecord(data); err == nil {
			restore(t, fs)
		}
	})
}

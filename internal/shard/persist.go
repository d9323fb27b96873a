package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"grub/internal/binenc"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/kvstore"
	"grub/internal/obs"
)

// Persistence: each shard owns a kvstore.DB under the feed's data
// directory. Applied op batches are appended to a durable log (one typed
// RecordOps value per batch, keyed by sequence number, riding the engine's
// write-ahead log), and snapshots compact the log: a RecordSnapshot value
// carrying the shard's counter metadata and its complete feed state (the
// binary core feed snapshot) supersedes every log record at or below its
// sequence.
//
// The discipline is log-then-apply: a batch is durable before it executes,
// so after a crash the recovered state is exactly "a fresh feed replaying
// the logged prefix" — the same equivalence the sharded engine's race tests
// pin down, extended across a process boundary. Recovery loads the newest
// snapshot (if any), restores the feed from it, and replays the log records
// above it in sequence order.

// PersistOptions configures per-shard durability.
type PersistOptions struct {
	// Dir is the feed's data directory; shard i stores under Dir/shard-<i>.
	Dir string
	// SnapshotEvery takes an automatic snapshot after that many applied
	// batches since the last one (0 = only explicit Snapshot calls and the
	// final drain-then-flush on Close).
	SnapshotEvery int
	// SyncWrites fsyncs every log append. Off by default: the crash model
	// of the tests is process death, not host death.
	SyncWrites bool
	// Metrics receives the storage engine's telemetry (cache hits, bloom
	// rejections, flush/compaction counts). The gateway shares one bundle
	// across every shard store so the exported grub_kv_* series aggregate
	// the whole process. Nil means unmetered.
	Metrics *kvstore.Metrics
	// Snapshots receives the node-level snapshot cost counters, shared
	// the same way. Nil means unmetered.
	Snapshots *SnapshotMetrics
}

// SnapshotMetrics counts what durable snapshots cost across every shard
// store of a process: wall time spent snapshotting (encode, write, log
// prune and checkpoint — the stall a batch that triggers an automatic
// snapshot waits behind) and bytes written as snapshot records. Both are
// O(1) series, not per feed. obs counters are nil-safe.
type SnapshotMetrics struct {
	Seconds *obs.Counter
	Bytes   *obs.Counter
}

// NewSnapshotMetrics registers the snapshot counters on r. Registration is
// idempotent: every call on one registry returns handles onto the same
// series.
func NewSnapshotMetrics(r *obs.Registry) *SnapshotMetrics {
	return &SnapshotMetrics{
		Seconds: r.NewCounter("grub_persist_snapshot_seconds_total", "Wall time spent taking durable feed snapshots (encode, write, log prune, checkpoint)."),
		Bytes:   r.NewCounter("grub_persist_snapshot_bytes_total", "Bytes of durable feed snapshot records written."),
	}
}

// PersistStat reports one shard's durability counters.
type PersistStat struct {
	// Snapshots counts snapshots taken over the store's lifetime.
	Snapshots int `json:"snapshots"`
	// LoggedBatches counts log records retained since the last snapshot
	// (the replay length a crash right now would pay).
	LoggedBatches int `json:"loggedBatches"`
	// LastSeq is the sequence number of the last logged batch.
	LastSeq uint64 `json:"lastSeq"`
	// LastError reports the most recent automatic-snapshot failure, empty
	// when compaction is healthy. The log keeps growing (and stays
	// replayable) while snapshots fail, so this is a health signal, not
	// data loss.
	LastError string `json:"lastError,omitempty"`
	// LastSnapshotBytes is the size of the newest snapshot record this
	// process wrote (0 before the first).
	LastSnapshotBytes int `json:"lastSnapshotBytes"`
	// SnapshotSeconds is the wall time this process has spent taking
	// snapshots (encode, write, log prune, checkpoint).
	SnapshotSeconds float64 `json:"snapshotSeconds"`
}

// PersistStats aggregates durability counters across shards.
type PersistStats struct {
	Snapshots     int    `json:"snapshots"`
	LoggedBatches int    `json:"loggedBatches"`
	LastSeq       uint64 `json:"lastSeq"`
	// LastError is the first shard's reported snapshot failure, if any.
	LastError string `json:"lastError,omitempty"`
}

const (
	logKeyPrefix = "log/"
	snapKey      = "snap"
)

func logKey(seq uint64) []byte {
	return []byte(fmt.Sprintf("%s%016x", logKeyPrefix, seq))
}

// A snapshot record's payload is a fixed header holding the worker counters
// that must survive alongside the feed state for stats continuity, then the
// feed snapshot itself (which starts with its format version byte):
//
//	uint64 ops | uint64 batches | uint64 baseGas | uint64 snapshots | feed snapshot
//
// All four header fields are big-endian.
const snapHeaderLen = 32

// encodeSnapshotRecord builds the complete snapshot record value (typed
// record framing, header, feed snapshot) in one buffer. sizeHint is the
// previous record's size: the buffer is allocated a little larger, so the
// encoder fills it without regrowing.
func encodeSnapshotRecord(st *shardState, seq uint64, snapshots, sizeHint int) ([]byte, error) {
	rec := make([]byte, 0, sizeHint+sizeHint/8+64)
	rec = kvstore.AppendRecordHeader(rec, kvstore.RecordSnapshot, seq)
	rec = binary.BigEndian.AppendUint64(rec, uint64(st.ops))
	rec = binary.BigEndian.AppendUint64(rec, uint64(st.batches))
	rec = binary.BigEndian.AppendUint64(rec, uint64(st.base))
	rec = binary.BigEndian.AppendUint64(rec, uint64(snapshots))
	return st.feed.AppendSnapshot(rec)
}

// snapMeta is a decoded snapshot record header.
type snapMeta struct {
	ops, batches, snapshots int
	base                    gas.Gas
}

// decodeSnapshotRecord splits a snapshot record payload into its header and
// decoded feed snapshot. A record written by a JSON-era build, a truncated
// record or a corrupt one is an error.
func decodeSnapshotRecord(payload []byte) (snapMeta, *core.FeedSnapshot, error) {
	if len(payload) > 0 && payload[0] == '{' {
		return snapMeta{}, nil, errors.New("shard: snapshot record is in the JSON format of an earlier build; this build reads only the binary format")
	}
	r := binenc.NewReader(payload)
	ops, batches, base, snaps := r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()
	if r.Err() != nil {
		return snapMeta{}, nil, fmt.Errorf("shard: snapshot record header: %w", r.Err())
	}
	const maxInt = uint64(^uint(0) >> 1)
	if ops > maxInt || batches > maxInt || snaps > maxInt {
		return snapMeta{}, nil, errors.New("shard: snapshot record header out of range")
	}
	fs, err := core.DecodeFeedSnapshot(payload[snapHeaderLen:])
	if err != nil {
		return snapMeta{}, nil, err
	}
	return snapMeta{ops: int(ops), batches: int(batches), snapshots: int(snaps), base: gas.Gas(base)}, fs, nil
}

// persister owns one shard's durable store. It is touched only by the
// shard's worker goroutine (and by New before the worker starts).
type persister struct {
	db            *kvstore.DB
	snapshotEvery int

	nextSeq       uint64 // sequence the next logged batch gets
	loggedBatches int    // log records since the last snapshot
	snapshots     int
	sinceSnapshot int // applied batches since the last snapshot

	// lastSnapBytes sizes the next snapshot's buffer (snapshots grow
	// slowly), so encoding does not regrow it; the buffer itself is not
	// kept between snapshots.
	lastSnapBytes int
	snapSeconds   float64
	metrics       *SnapshotMetrics
}

func openPersister(opts PersistOptions, idx int) (*persister, error) {
	dir := filepath.Join(opts.Dir, fmt.Sprintf("shard-%03d", idx))
	db, err := kvstore.Open(dir, kvstore.Options{SyncWrites: opts.SyncWrites, Metrics: opts.Metrics})
	if err != nil {
		return nil, fmt.Errorf("shard: open store: %w", err)
	}
	return &persister{
		db:            db,
		snapshotEvery: opts.SnapshotEvery,
		nextSeq:       1,
		metrics:       opts.Snapshots,
	}, nil
}

// appendBatch logs one op batch before it is applied.
func (p *persister) appendBatch(ops []core.Op) error {
	payload, err := json.Marshal(ops)
	if err != nil {
		return fmt.Errorf("shard: encode batch: %w", err)
	}
	seq := p.nextSeq
	if err := p.db.Put(logKey(seq), kvstore.EncodeRecord(kvstore.RecordOps, seq, payload)); err != nil {
		return fmt.Errorf("shard: log batch %d: %w", seq, err)
	}
	p.nextSeq++
	p.loggedBatches++
	p.sinceSnapshot++
	return nil
}

// snapshot persists the shard's complete state and compacts the log below
// it. st is the worker's live accounting.
func (p *persister) snapshot(st *shardState) error {
	start := time.Now()
	lastSeq := p.nextSeq - 1
	rec, err := encodeSnapshotRecord(st, lastSeq, p.snapshots+1, p.lastSnapBytes)
	if err != nil {
		return err
	}
	if err := p.db.Put([]byte(snapKey), rec); err != nil {
		return fmt.Errorf("shard: write snapshot: %w", err)
	}
	// Drop the superseded log records, then checkpoint: the memtable
	// flushes to an SSTable, compaction folds the tombstones away and the
	// engine's WAL restarts empty.
	b := kvstore.NewBatch()
	for it := p.db.NewIteratorFrom([]byte(logKeyPrefix)); it.Valid(); it.Next() {
		key := string(it.Key())
		if !strings.HasPrefix(key, logKeyPrefix) {
			break // past the log keyspace (keys iterate sorted)
		}
		_, seq, _, err := kvstore.DecodeTypedRecord(it.Value())
		if err != nil {
			return fmt.Errorf("shard: corrupt log record %q: %w", key, err)
		}
		if seq <= lastSeq {
			b.Delete([]byte(key))
		}
	}
	if err := p.db.Write(b); err != nil {
		return fmt.Errorf("shard: prune log: %w", err)
	}
	if err := p.db.Checkpoint(); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	p.snapshots++
	p.loggedBatches = 0
	p.sinceSnapshot = 0
	p.lastSnapBytes = len(rec)
	secs := time.Since(start).Seconds()
	p.snapSeconds += secs
	if p.metrics != nil {
		p.metrics.Seconds.Add(secs)
		p.metrics.Bytes.Add(float64(len(rec)))
	}
	return nil
}

// maybeSnapshot takes an automatic snapshot when the configured cadence is
// due.
func (p *persister) maybeSnapshot(st *shardState) error {
	if p.snapshotEvery <= 0 || p.sinceSnapshot < p.snapshotEvery {
		return nil
	}
	return p.snapshot(st)
}

// rollbackBatch removes the most recently logged batch — one the replication
// anchor check refused — so it cannot replay into recovered state. seq must
// be the last appended sequence.
func (p *persister) rollbackBatch(seq uint64) error {
	if seq != p.nextSeq-1 {
		return fmt.Errorf("shard: rollback seq %d is not the last logged %d", seq, p.nextSeq-1)
	}
	if err := p.db.Delete(logKey(seq)); err != nil {
		return fmt.Errorf("shard: rollback batch %d: %w", seq, err)
	}
	p.nextSeq = seq
	p.loggedBatches--
	p.sinceSnapshot--
	return nil
}

// resetTo reinstalls the store around a replication bootstrap: every local
// log record is dropped (the local history — possibly stale or diverged —
// is superseded wholesale by the leader snapshot) and the freshly installed
// state is snapshotted at seq as the new durable base.
func (p *persister) resetTo(st *shardState, seq uint64) error {
	b := kvstore.NewBatch()
	for it := p.db.NewIteratorFrom([]byte(logKeyPrefix)); it.Valid(); it.Next() {
		if !strings.HasPrefix(string(it.Key()), logKeyPrefix) {
			break
		}
		b.Delete(it.Key())
	}
	if err := p.db.Write(b); err != nil {
		return fmt.Errorf("shard: drop superseded log: %w", err)
	}
	p.nextSeq = seq + 1
	p.loggedBatches = 0
	p.sinceSnapshot = 0
	return p.snapshot(st)
}

func (p *persister) stat() PersistStat {
	return PersistStat{
		Snapshots: p.snapshots, LoggedBatches: p.loggedBatches, LastSeq: p.nextSeq - 1,
		LastSnapshotBytes: p.lastSnapBytes, SnapshotSeconds: p.snapSeconds,
	}
}

// recoverShard loads the shard's durable state: the newest snapshot (if
// any) restores the feed through Options.Restore, and every log record above
// it replays through the worker's execute and commit steps. The store is
// attached only after replay, so a replayed batch is neither logged again
// nor auto-snapshotted. It returns the recovered shard state, with ops,
// batches and base gas continuing from where the previous process stopped.
func recoverShard(p *persister, w *worker, opts Options, build func(int) (*core.Feed, error)) (*shardState, error) {
	var (
		st      shardState
		lastSeq uint64
	)
	if raw, err := p.db.Get([]byte(snapKey)); err == nil {
		kind, seq, payload, derr := kvstore.DecodeTypedRecord(raw)
		if derr != nil {
			return nil, fmt.Errorf("shard: corrupt snapshot record: %w", derr)
		}
		if kind != kvstore.RecordSnapshot {
			return nil, fmt.Errorf("shard: snapshot key holds kind %d", kind)
		}
		meta, fs, derr := decodeSnapshotRecord(payload)
		if derr != nil {
			return nil, fmt.Errorf("shard: decode snapshot: %w", derr)
		}
		if w.restore == nil {
			return nil, fmt.Errorf("shard: store has a snapshot but no Restore callback is configured")
		}
		feed, err := w.restore(w.idx, fs)
		if err != nil {
			return nil, fmt.Errorf("shard: restore feed: %w", err)
		}
		st = shardState{feed: feed, ops: meta.ops, batches: meta.batches, base: meta.base}
		p.snapshots = meta.snapshots
		lastSeq = seq
	} else if err != kvstore.ErrNotFound {
		return nil, fmt.Errorf("shard: read snapshot: %w", err)
	} else {
		feed, err := build(w.idx)
		if err != nil {
			return nil, err
		}
		st = shardState{feed: feed, base: feed.FeedGas()}
	}
	st.record = opts.RecordTrace
	// The replication log restarts at the snapshot's sequence; every
	// replayed batch below commits into it, so a follower that was tailing
	// this shard before the crash resumes without a snapshot bootstrap as
	// long as its cursor is above the durable snapshot.
	st.repl = newReplLog(opts.ReplRetain)
	st.repl.reset(uint64(st.batches))

	// Replay the log above the snapshot, in sequence order: the cursor-
	// positioned iterator starts at the first retained record past the
	// snapshot (the fixed-width hex key preserves numeric order).
	var clk stageClock // inert: recovery is untimed
	maxSeq := lastSeq
	for it := p.db.NewIteratorFrom(logKey(lastSeq + 1)); it.Valid(); it.Next() {
		key := string(it.Key())
		if !strings.HasPrefix(key, logKeyPrefix) {
			break // past the log keyspace
		}
		kind, seq, payload, err := kvstore.DecodeTypedRecord(it.Value())
		if err != nil {
			return nil, fmt.Errorf("shard: corrupt log record %q: %w", key, err)
		}
		if kind != kvstore.RecordOps || seq <= lastSeq {
			continue
		}
		var ops []core.Op
		if err := json.Unmarshal(payload, &ops); err != nil {
			return nil, fmt.Errorf("shard: decode log record %q: %w", key, err)
		}
		if _, err := st.execute(ops, &clk); err != nil {
			return nil, err
		}
		w.commit(&st, ops, &clk)
		p.loggedBatches++
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	p.nextSeq = maxSeq + 1
	st.persist = p
	return &st, nil
}

// RemoveStore deletes a feed's on-disk persistence directory. The gateway
// calls it when a persisted feed is explicitly closed (the feed is gone
// from the manifest; its state must not resurrect).
func RemoveStore(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("shard: remove store: %w", err)
	}
	return nil
}

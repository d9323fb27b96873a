package shard

import (
	"fmt"
	"sync"

	"grub/internal/repl"
)

// Replication hooks: with Options.Repl set, every shard keeps a bounded
// in-memory replication log — each applied batch with its post-apply
// (seq, root, count, height) anchor, the same anchor the query views
// advertise — and accepts three extra worker requests:
//
//   - Apply: replay one batch shipped from a leader through the normal
//     log-then-apply path, then verify the post-apply state against the
//     leader's anchor. A mismatch is a divergence: the shard refuses the
//     batch (rolling it back out of its durable log), halts replication for
//     itself, and keeps serving its last verified view.
//   - Reset: replace the shard's state wholesale with a bootstrap snapshot,
//     after verifying the restored state hashes to the snapshot's anchor.
//   - ReplSnapshot: produce such a snapshot at the shard's current seq.
//
// The log is the leader-side serving surface (ShardedFeed.ReplPage); the
// other three are the follower side. Any replicating feed can serve both
// roles, so followers chain.

// DefaultReplRetain is the per-shard replication log size when Options.Repl
// is set and ReplRetain is 0. A follower whose cursor falls more than this
// many batches behind bootstraps from a snapshot instead.
const DefaultReplRetain = 256

// DefaultReplRetainBytes bounds the same window by payload size (16 MiB per
// shard): entries retain their batches' full keys and values, so an
// entry-count cap alone would let a few huge batches pin unbounded memory.
// Whichever bound is hit first slides the floor.
const DefaultReplRetainBytes = 16 << 20

// ErrNotReplicating aliases repl.ErrNotReplicating: the feed was built
// without Options.Repl.
var ErrNotReplicating = repl.ErrNotReplicating

// replLog is one shard's bounded in-memory replication log: a contiguous
// window of anchored entries ending at lastSeq. The worker appends; HTTP
// serving goroutines read pages — a mutex (not the mailbox) keeps log polls
// off the write path.
type replLog struct {
	mu       sync.Mutex
	retain   int
	maxBytes int
	bytes    int // sum of entries' WireBytes
	lastSeq  uint64
	entries  []repl.Entry // contiguous, entries[len-1].Seq == lastSeq
}

func newReplLog(retain int) *replLog {
	if retain <= 0 {
		retain = DefaultReplRetain
	}
	return &replLog{retain: retain, maxBytes: DefaultReplRetainBytes}
}

// reset pins the log to seq with no retained entries (fresh shard, restored
// snapshot, or replication bootstrap).
func (l *replLog) reset(seq uint64) {
	l.mu.Lock()
	l.lastSeq = seq
	l.entries = l.entries[:0]
	l.bytes = 0
	l.mu.Unlock()
}

// append records one applied batch. Seq must be contiguous — the worker
// serializes appends, so a gap is a programming error.
func (l *replLog) append(e repl.Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Seq != l.lastSeq+1 {
		panic(fmt.Sprintf("shard: replication log gap: appending seq %d after %d", e.Seq, l.lastSeq))
	}
	l.entries = append(l.entries, e)
	l.bytes += e.WireBytes()
	// Evict by entry count or payload bytes, whichever bound bites first
	// (always keeping the newest entry so the floor tracks lastSeq-1 at
	// worst).
	keep := 0
	for len(l.entries)-keep > 1 &&
		(len(l.entries)-keep > l.retain || l.bytes > l.maxBytes) {
		l.bytes -= l.entries[keep].WireBytes()
		keep++
	}
	if keep > 0 {
		// Copy down so the backing array stops pinning evicted batches.
		l.entries = append(l.entries[:0], l.entries[keep:]...)
	}
	l.lastSeq = e.Seq
}

// seq returns the last applied batch sequence.
func (l *replLog) seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// page serves the entries above cursor from, up to max, plus the floor (the
// lowest cursor still servable from the retained window). A cursor below the
// floor needs a snapshot bootstrap.
func (l *replLog) page(from uint64, max int) repl.LogPage {
	l.mu.Lock()
	defer l.mu.Unlock()
	floor := l.lastSeq - uint64(len(l.entries))
	p := repl.LogPage{FloorSeq: floor, LeaderSeq: l.lastSeq}
	if from < floor {
		p.SnapshotRequired = true
		return p
	}
	if from >= l.lastSeq {
		return p
	}
	start := int(from - floor)
	end := len(l.entries)
	if max > 0 && end-start > max {
		end = start + max
	}
	p.Entries = append([]repl.Entry(nil), l.entries[start:end]...)
	return p
}

// Compile-time check: ShardedFeed is the engine a repl.FeedTail replicates
// into.
var _ repl.Feed = (*ShardedFeed)(nil)

// replLogOf returns a shard's replication log, or ErrNotReplicating.
func (s *ShardedFeed) replLogOf(shard int) (*replLog, error) {
	if shard < 0 || shard >= len(s.workers) {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", shard, len(s.workers))
	}
	if s.replLogs[shard] == nil {
		return nil, ErrNotReplicating
	}
	return s.replLogs[shard], nil
}

// Seq returns a shard's replication cursor: the sequence of its last applied
// batch.
func (s *ShardedFeed) Seq(shard int) (uint64, error) {
	l, err := s.replLogOf(shard)
	if err != nil {
		return 0, err
	}
	return l.seq(), nil
}

// ReplPage serves one page of a shard's replication log above the cursor
// from — the leader side of log shipping. It reads the in-memory window
// without touching the shard worker.
func (s *ShardedFeed) ReplPage(shard int, from uint64, max int) (repl.LogPage, error) {
	l, err := s.replLogOf(shard)
	if err != nil {
		return repl.LogPage{}, err
	}
	return l.page(from, max), nil
}

// replRequest round-trips one replication request through a shard's worker.
func (s *ShardedFeed) replRequest(shard int, req request) (response, error) {
	if _, err := s.replLogOf(shard); err != nil {
		return response{}, err
	}
	w := s.workers[shard]
	resp := make(chan response, 1)
	req.resp = resp
	if err := s.send(w, req); err != nil {
		return response{}, err
	}
	return s.recv(w, resp)
}

// Apply replays one shipped batch on a shard through the normal
// log-then-apply path and verifies the post-apply anchor. On divergence the
// batch is rolled back out of the durable log, the shard's replication
// halts (every later Apply returns the same DivergenceError), and the
// last verified read view stays published.
func (s *ShardedFeed) Apply(shard int, e repl.Entry) error {
	r, err := s.replRequest(shard, request{kind: reqRepl, entry: &e})
	if err != nil {
		return err
	}
	return r.err
}

// ReplSnapshot produces a consistent bootstrap snapshot of one shard at its
// current sequence, anchored by the shard's root and count.
func (s *ShardedFeed) ReplSnapshot(shard int) (*repl.Snapshot, error) {
	r, err := s.replRequest(shard, request{kind: reqReplSnap})
	if err != nil {
		return nil, err
	}
	return r.snap, r.err
}

// Reset replaces a shard's state wholesale with a bootstrap snapshot after
// verifying the restored state hashes to the snapshot's anchor. On a
// persistent shard the local log (superseded wholesale, possibly from a
// stale or diverged history) is dropped and the snapshot becomes the new
// durable base. It returns the shard's new cursor.
func (s *ShardedFeed) Reset(shard int, snap *repl.Snapshot) (uint64, error) {
	if snap == nil || len(snap.Feed) == 0 {
		return 0, fmt.Errorf("shard: nil bootstrap snapshot")
	}
	r, err := s.replRequest(shard, request{kind: reqReplReset, snap: snap})
	if err != nil {
		return 0, err
	}
	if r.err != nil {
		return 0, r.err
	}
	return snap.Seq, nil
}

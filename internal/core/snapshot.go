package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"grub/internal/ads"
	"grub/internal/binenc"
	"grub/internal/chain"
	"grub/internal/merkle"
	"grub/internal/policy"
)

// ErrFeedBusy is returned by Snapshot when the feed is mid-transaction:
// snapshots capture quiescent points only (between applied ops, nothing in
// the mempool, no unanswered request events).
var ErrFeedBusy = errors.New("core: feed not quiescent")

// SnapshotVersion is the first byte of every encoded feed snapshot. A
// decoder refuses any other value, including the '{' that opened the JSON
// snapshots of earlier builds.
const SnapshotVersion byte = 1

// Feed snapshot format, version 1. Integers are uvarints, strings and byte
// strings carry a uvarint length (see internal/binenc):
//
//	version byte (SnapshotVersion)
//	records   uvarint n | n × (state byte | uvarint shared | string suffix | bytes value)
//	          in (state, key) order; each key is the previous key's first
//	          `shared` bytes followed by suffix
//	policy    byte 0 (stateless) | byte 1 | uint64 length | policy.Snapshotter state
//	chain     chain.AppendState
//	DO epoch  uvarint n | n × (string key | bytes value)    staged writes
//	          uvarint n | n × (string key | state byte)     pending states
//	          uvarint lruTick
//	          uvarint n | n × (string key | uvarint tick)   lastTouch
//	          byte 0 | byte 1 | 32-byte digest              last digest sent
//	counters  uvarint delivered | uvarint notFound | uvarint opsInEpoch
//	          uvarint n | n × (string key | bytes value)    LastValue
//
// Map sections are written in iteration order; nothing reads them in order.

// FeedSnapshot is a decoded feed snapshot: the complete state of a Feed at a
// quiescent point. Restoring it onto a feed built from the same
// configuration yields a feed that is behaviorally identical to the
// original: same record set and digest, same replication decisions going
// forward, same cumulative Gas, chain height and delivered counters.
//
// The chain's event log and call trace are not captured (see chain.State);
// the feed's monitoring cursors restart at zero against the restored chain's
// empty streams. Byte slices alias the decoded input; RestoreFeed copies
// what it keeps.
type FeedSnapshot struct {
	Chain chain.State

	// Records is the DO's authenticated mirror in (state, key) order; the
	// SP store shares the tree rebuilt from it (the two sides are identical
	// by protocol).
	Records []ads.Record
	// Policy is the decision maker's state (policy.Snapshotter); nil for
	// stateless policies.
	Policy []byte

	// DO epoch-in-progress state.
	Staged       []KV
	PendingState map[string]ads.State
	LRUTick      uint64
	LastTouch    map[string]uint64
	// LastDigest is the digest most recently sent on-chain (nil before the
	// first update or for NoADS feeds).
	LastDigest *merkle.Hash

	// Feed-level counters and DU-side application state.
	Delivered  int
	NotFound   int
	OpsInEpoch int
	LastValue  map[string][]byte
}

// PendingRequests returns the number of request events the watchdog has seen
// but not yet answered (non-zero only when delivery is being suppressed).
func (s *SPNode) PendingRequests() int { return len(s.pending) }

// Snapshot encodes the feed's complete state. The feed must be quiescent:
// no transactions in the mempool and no unanswered request events. Staged
// (un-flushed) epoch writes are part of the state and are captured.
func (f *Feed) Snapshot() ([]byte, error) { return f.AppendSnapshot(nil) }

// AppendSnapshot appends the encoded snapshot to dst, reading the live
// state directly: the record set is walked in place and every map is
// encoded as it stands, so the only allocation is dst's growth. On error
// dst is returned unchanged.
func (f *Feed) AppendSnapshot(dst []byte) ([]byte, error) {
	if n := f.SP.PendingRequests(); n != 0 {
		return dst, fmt.Errorf("%w: %d unanswered requests", ErrFeedBusy, n)
	}
	start := len(dst)
	dst = append(dst, SnapshotVersion)

	set := f.DO.set
	dst = binary.AppendUvarint(dst, uint64(set.Len()))
	prev := ""
	for rec := range set.All() {
		shared := commonPrefix(prev, rec.Key)
		dst = append(dst, byte(rec.State))
		dst = binary.AppendUvarint(dst, uint64(shared))
		dst = binenc.AppendString(dst, rec.Key[shared:])
		dst = binenc.AppendBytes(dst, rec.Value)
		prev = rec.Key
	}

	if sn, ok := f.DO.policy.(policy.Snapshotter); ok {
		dst = append(dst, 1)
		at := len(dst)
		dst = binary.BigEndian.AppendUint64(dst, 0) // length, patched below
		dst = sn.AppendState(dst)
		binary.BigEndian.PutUint64(dst[at:], uint64(len(dst)-at-8))
	} else {
		dst = append(dst, 0)
	}

	dst, err := f.Chain.AppendState(dst)
	if err != nil {
		return dst[:start], fmt.Errorf("%w: %w", ErrFeedBusy, err)
	}

	do := f.DO
	dst = binary.AppendUvarint(dst, uint64(len(do.staged)))
	for _, kv := range do.staged {
		dst = binenc.AppendString(dst, kv.Key)
		dst = binenc.AppendBytes(dst, kv.Value)
	}
	dst = binary.AppendUvarint(dst, uint64(len(do.pendingState)))
	for k, st := range do.pendingState {
		dst = binenc.AppendString(dst, k)
		dst = append(dst, byte(st))
	}
	dst = binary.AppendUvarint(dst, do.lruTick)
	dst = binary.AppendUvarint(dst, uint64(len(do.lastTouch)))
	for k, t := range do.lastTouch {
		dst = binenc.AppendString(dst, k)
		dst = binary.AppendUvarint(dst, t)
	}
	dst = binenc.AppendBool(dst, do.lastDigest != nil)
	if do.lastDigest != nil {
		dst = append(dst, do.lastDigest[:]...)
	}

	dst = binary.AppendUvarint(dst, uint64(f.delivered))
	dst = binary.AppendUvarint(dst, uint64(f.notFound))
	dst = binary.AppendUvarint(dst, uint64(f.opsInEpoch))
	dst = binary.AppendUvarint(dst, uint64(len(f.LastValue)))
	for k, v := range f.LastValue {
		dst = binenc.AppendString(dst, k)
		dst = binenc.AppendBytes(dst, v)
	}
	return dst, nil
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// DecodeFeedSnapshot parses an encoded snapshot. The input may come from
// disk or from a peer: every count and length is checked against the
// remaining bytes before anything is allocated, and any malformed,
// truncated or trailing input is an error. The result's byte slices alias
// data.
func DecodeFeedSnapshot(data []byte) (*FeedSnapshot, error) {
	if len(data) == 0 {
		return nil, errors.New("core: decode feed snapshot: empty input")
	}
	switch v := data[0]; {
	case v == '{':
		return nil, fmt.Errorf("core: decode feed snapshot: JSON snapshot of an earlier build; this build reads only binary format %d", SnapshotVersion)
	case v != SnapshotVersion:
		return nil, fmt.Errorf("core: decode feed snapshot: unknown format version %d (this build reads binary format %d)", v, SnapshotVersion)
	}
	r := binenc.NewReader(data[1:])
	s := &FeedSnapshot{}

	// Records: state byte, shared-prefix length, suffix, value.
	n := r.Count(4)
	var key []byte
	for i := 0; i < n && r.Err() == nil; i++ {
		st := ads.ReadState(r)
		shared := r.Int()
		suffix := r.Bytes()
		if shared > len(key) {
			r.Fail(fmt.Errorf("record %d shares %d bytes of a %d-byte key", i, shared, len(key)))
			break
		}
		key = append(key[:shared], suffix...)
		s.Records = append(s.Records, ads.Record{Key: string(key), State: st, Value: r.Bytes()})
	}

	if r.Bool() {
		if size := r.Uint64(); size > uint64(r.Len()) {
			r.Fail(fmt.Errorf("policy state of %d bytes exceeds the %d left", size, r.Len()))
		} else {
			s.Policy = r.Fixed(int(size))
		}
	}

	s.Chain = chain.ReadState(r)

	n = r.Count(2) // string key + bytes value
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Staged = append(s.Staged, KV{Key: r.String(), Value: r.Bytes()})
	}
	n = r.Count(2) // string key + state byte
	s.PendingState = make(map[string]ads.State)
	for i := 0; i < n && r.Err() == nil; i++ {
		s.PendingState[r.String()] = ads.ReadState(r)
	}
	requireDistinct(r, len(s.PendingState), n)
	s.LRUTick = r.Uvarint()
	n = r.Count(2) // string key + uvarint tick
	s.LastTouch = make(map[string]uint64)
	for i := 0; i < n && r.Err() == nil; i++ {
		s.LastTouch[r.String()] = r.Uvarint()
	}
	requireDistinct(r, len(s.LastTouch), n)
	if r.Bool() {
		if b := r.Fixed(merkle.HashSize); b != nil {
			var h merkle.Hash
			copy(h[:], b)
			s.LastDigest = &h
		}
	}

	s.Delivered = r.Int()
	s.NotFound = r.Int()
	s.OpsInEpoch = r.Int()
	n = r.Count(2) // string key + bytes value
	s.LastValue = make(map[string][]byte)
	for i := 0; i < n && r.Err() == nil; i++ {
		s.LastValue[r.String()] = r.Bytes()
	}
	requireDistinct(r, len(s.LastValue), n)

	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("core: decode feed snapshot: %w", err)
	}
	return s, nil
}

// requireDistinct fails r when a map section decoded to fewer entries than
// its count, i.e. the encoding repeated a key.
func requireDistinct(r *binenc.Reader, got, want int) {
	if got != want {
		r.Fail(errors.New("repeated key in a map section"))
	}
}

// RestoreFeed wires a feed exactly like NewFeed — same contracts on the
// given (fresh) chain, same policy, same options — and then installs a
// snapshot's state instead of running genesis. The chain must be newly
// constructed with the same params and gas schedule the original used, and p
// must be a policy constructed with the same parameters; snap supplies all
// accumulated state.
func RestoreFeed(c *chain.Chain, p policy.Policy, opts Options, snap *FeedSnapshot) (*Feed, error) {
	opts = opts.withDefaults()
	if err := c.Restore(snap.Chain); err != nil {
		return nil, fmt.Errorf("core: restore chain: %w", err)
	}
	mgr := NewStorageManager(c, opts.Manager, opts.DOAddr, opts.Trace)
	sp := NewSPNode(c, opts.SPStore, opts.Manager, opts.SPAddr)
	do := NewDO(c, sp, opts.Manager, opts.DOAddr, p, opts.MaxReplicas, opts.NoADS)
	f := &Feed{
		Chain:     c,
		Manager:   mgr,
		DO:        do,
		SP:        sp,
		opts:      opts,
		LastValue: make(map[string][]byte, len(snap.LastValue)),
	}
	registerReader(c, f, opts.Manager)

	// Record sets: the DO's authenticated mirror is built from the
	// snapshot's sorted records in one pass — the treap's shape depends
	// only on the key set, so the digest matches the original's bit for
	// bit — and the SP's identical store shares its immutable nodes.
	set, err := ads.NewSetSorted(snap.Records)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	do.set = set
	if err := sp.store.Load(set); err != nil {
		return nil, fmt.Errorf("core: restore SP: %w", err)
	}
	if snap.Policy != nil {
		sn, ok := p.(policy.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("core: snapshot has policy state but %s cannot restore it", p.Name())
		}
		if err := sn.RestoreState(snap.Policy); err != nil {
			return nil, err
		}
	}
	if len(snap.Staged) > 0 {
		do.staged = make([]KV, len(snap.Staged))
		for i, kv := range snap.Staged {
			do.staged[i] = KV{Key: kv.Key, Value: append([]byte(nil), kv.Value...)}
		}
	}
	for k, st := range snap.PendingState {
		do.pendingState[k] = st
	}
	do.lruTick = snap.LRUTick
	for k, t := range snap.LastTouch {
		do.lastTouch[k] = t
	}
	if snap.LastDigest != nil {
		h := *snap.LastDigest
		do.lastDigest = &h
	}
	f.delivered = snap.Delivered
	f.notFound = snap.NotFound
	f.opsInEpoch = snap.OpsInEpoch
	for k, v := range snap.LastValue {
		f.LastValue[k] = append([]byte(nil), v...)
	}
	// The restored chain's call trace is empty; the promotion monitor's
	// cursor restarts with it.
	f.promoCursor = 0
	return f, nil
}

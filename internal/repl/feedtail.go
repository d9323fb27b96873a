package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"grub/internal/obs"
)

// Options configures a FeedTail.
type Options struct {
	// Leader is the leader gateway's base URL ("http://host:port").
	Leader string
	// HTTP overrides the transport. nil gets a client with a 10s timeout:
	// replication fetches are small and quick, and an unbounded read on a
	// blackholed leader connection would wedge the tailers — and with
	// them FeedTail.Close and the daemon's graceful shutdown.
	HTTP *http.Client
	// Poll is the idle poll floor for log tailing (default 20ms). Pages
	// with entries are drained back-to-back regardless.
	Poll time.Duration
	// MaxBackoff caps the exponential backoff on empty polls, transient
	// errors and re-arm attempts (default 1s).
	MaxBackoff time.Duration
	// MaxBatches bounds entries per log fetch (default 64).
	MaxBatches int
}

func (o Options) withDefaults() Options {
	if o.HTTP == nil {
		o.HTTP = &http.Client{Timeout: 10 * time.Second}
	}
	if o.Poll <= 0 {
		o.Poll = 20 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.MaxBatches <= 0 {
		o.MaxBatches = 64
	}
	return o
}

// Shard replication states reported by Status.
const (
	// StateSyncing: bootstrapping (ensure/snapshot) or not yet tailing.
	StateSyncing = "syncing"
	// StateTailing: healthy, applying the leader's log as it grows.
	StateTailing = "tailing"
	// StateHalted: divergence detected; replication refused to continue.
	StateHalted = "halted"
	// StateGone: the leader no longer hosts the feed; local state is kept
	// (replication never deletes — operators do).
	StateGone = "gone"
	// StateFailed: the feed could not be created locally (config mismatch).
	StateFailed = "failed"
)

// ShardStatus is one shard's replication health.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	Seq       uint64 `json:"seq"`
	LeaderSeq uint64 `json:"leaderSeq"`
	// Lag is LeaderSeq - Seq as last observed (negative never: clamped 0).
	Lag   uint64 `json:"lag"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// FeedStatus is one feed's replication health, worst shard first in State.
type FeedStatus struct {
	ID     string        `json:"id"`
	State  string        `json:"state"`
	Error  string        `json:"error,omitempty"`
	Shards []ShardStatus `json:"shards,omitempty"`
}

// FeedTail replicates exactly one feed from one leader into a local Target:
// the replication unit the cluster layer composes. Every node tails each
// feed it does not own from that feed's current owner, retargeting (or
// promoting itself and dropping the tail) as ownership moves.
//
// The tail reads the feed's config from the leader's /repl/feeds only when
// it arms: at Start, and again after the feed left the leader (StateGone)
// or could not be created locally (StateFailed). Once armed it runs one
// tailer per shard — verified snapshot bootstrap below the retained-log
// floor, log paging with backoff/resume, and the divergence halt — and
// never lists feeds again while they run. During an ownership handoff the
// new owner always hosts the feed, so a gone tail pointed at the right
// node re-arms by itself.
type FeedTail struct {
	opts   Options
	id     string
	client *Client
	target Target
	stages *obs.FeedStages // set when armed; nil-safe

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once

	mu     sync.Mutex
	state  string
	err    error
	shards []*shardTail
}

// shardTail is one shard's tailer state.
type shardTail struct {
	shard int

	mu        sync.Mutex
	cursor    uint64
	leaderSeq uint64
	state     string
	err       error
}

func (s *shardTail) set(state string, err error) {
	s.mu.Lock()
	s.state, s.err = state, err
	s.mu.Unlock()
}

func (s *shardTail) observe(cursor, leaderSeq uint64) {
	s.mu.Lock()
	s.cursor = cursor
	if leaderSeq > s.leaderSeq {
		s.leaderSeq = leaderSeq
	}
	s.mu.Unlock()
}

// NewFeedTail returns an unstarted tail replicating feed id from
// opts.Leader into target.
func NewFeedTail(opts Options, target Target, id string) *FeedTail {
	opts = opts.withDefaults()
	return &FeedTail{
		opts:   opts,
		id:     id,
		client: &Client{Base: opts.Leader, HTTP: opts.HTTP},
		target: target,
		stop:   make(chan struct{}),
		state:  StateSyncing,
	}
}

// Start launches replication of the one feed. It is idempotent.
func (t *FeedTail) Start() {
	t.startOnce.Do(func() {
		t.wg.Add(1)
		go t.run()
	})
}

// Close stops the tail's goroutines and waits for them to exit. Close the
// tail before closing the gateway it replicates into.
func (t *FeedTail) Close() {
	t.closeOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

func (t *FeedTail) set(state string, err error) {
	t.mu.Lock()
	t.state, t.err = state, err
	t.mu.Unlock()
}

// sleep waits d, returning false if the tail (or the armed generation,
// when gone is non-nil) stopped.
func (t *FeedTail) sleep(d time.Duration, gone <-chan struct{}) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.stop:
		return false
	case <-gone:
		return false
	case <-timer.C:
		return true
	}
}

func (t *FeedTail) grow(b time.Duration) time.Duration {
	return min(2*b, t.opts.MaxBackoff)
}

// run arms the tail and waits while its shard tailers run; it re-arms with
// backoff whenever arming fails or the feed leaves the leader.
func (t *FeedTail) run() {
	defer t.wg.Done()
	backoff := t.opts.Poll
	for {
		var gen sync.WaitGroup
		if gone := t.arm(&gen); gone != nil {
			select {
			case <-t.stop:
			case <-gone:
				backoff = t.opts.Poll
			}
			gen.Wait()
		}
		if !t.sleep(backoff, nil) {
			return
		}
		backoff = t.grow(backoff)
	}
}

// arm fetches the feed's config from the leader, creates the feed locally
// (or adopts the recovered one) and launches one tailer per shard, counted
// in gen. It returns a channel closed when a tailer finds the feed gone
// from the leader, or nil when arming failed (the state says why).
//
// A feed that left the leader and came back is re-armed with the leader's
// current config, so a deleted-and-recreated feed resumes replicating. If
// the local state is ahead of the recreated history, the tailers halt with
// a divergence error rather than forking.
func (t *FeedTail) arm(gen *sync.WaitGroup) <-chan struct{} {
	infos, err := t.client.Feeds()
	if err != nil {
		t.set(StateSyncing, err)
		return nil
	}
	var cfg json.RawMessage
	for _, info := range infos {
		if info.ID == t.id {
			cfg = info.Config
		}
	}
	if cfg == nil {
		t.set(StateGone, fmt.Errorf("%w: %q", ErrFeedGone, t.id))
		return nil
	}
	// EnsureFeed can run feed recovery; keep it off the status lock.
	if err := t.target.EnsureFeed(t.id, cfg); err != nil {
		t.set(StateFailed, err)
		return nil
	}
	lf, err := t.target.Feed(t.id)
	if err != nil {
		t.set(StateFailed, err)
		return nil
	}
	t.stages = t.target.Pipeline().Feed(t.id)
	tails := make([]*shardTail, lf.Shards())
	for i := range tails {
		tails[i] = &shardTail{shard: i, state: StateSyncing}
	}
	t.mu.Lock()
	t.state, t.err, t.shards = StateTailing, nil, tails
	t.mu.Unlock()

	gone := make(chan struct{})
	var once sync.Once
	markGone := func() {
		once.Do(func() {
			t.set(StateGone, nil)
			close(gone)
		})
	}
	for _, s := range tails {
		gen.Add(1)
		go func() {
			defer gen.Done()
			t.tail(lf, s, gone, markGone)
		}()
	}
	return gone
}

// tail is one shard's replication loop: resume from the local cursor,
// bootstrap from a snapshot when the cursor fell below the leader's retained
// floor, then apply pages of anchored batches, backing off when idle and
// halting permanently on divergence.
func (t *FeedTail) tail(lf Feed, s *shardTail, gone <-chan struct{}, markGone func()) {
	cursor, err := lf.Seq(s.shard)
	if err != nil {
		s.set(StateHalted, err)
		return
	}
	s.observe(cursor, 0)
	backoff := t.opts.Poll
	wait := func() bool {
		ok := t.sleep(backoff, gone)
		backoff = t.grow(backoff)
		return ok
	}
	for {
		select {
		case <-t.stop:
			return
		case <-gone:
			s.set(StateGone, nil)
			return
		default:
		}
		fetchStart := time.Now()
		page, err := t.client.Log(t.id, s.shard, cursor, t.opts.MaxBatches)
		if err != nil {
			if errors.Is(err, ErrFeedGone) {
				s.set(StateGone, err)
				markGone()
				return
			}
			s.set(StateSyncing, err)
			if !wait() {
				return
			}
			continue
		}
		t.stages.GetFollowerFetch().ObserveSince(fetchStart)
		s.observe(cursor, page.LeaderSeq)
		if page.LeaderSeq < cursor {
			// The local shard is ahead of the leader: wrong leader, local
			// writes, or leader data loss. Following it would fork.
			s.set(StateHalted, fmt.Errorf("%w: local seq %d ahead of leader seq %d",
				ErrDivergence, cursor, page.LeaderSeq))
			return
		}
		if page.SnapshotRequired {
			s.set(StateSyncing, nil)
			snap, err := t.client.Snapshot(t.id, s.shard)
			if err == nil {
				var seq uint64
				if seq, err = lf.Reset(s.shard, snap); err == nil {
					cursor = seq
					s.observe(cursor, page.LeaderSeq)
					backoff = t.opts.Poll
					continue
				}
				if errors.Is(err, ErrDivergence) {
					s.set(StateHalted, err)
					return
				}
			}
			s.set(StateSyncing, err)
			if !wait() {
				return
			}
			continue
		}
		if len(page.Entries) == 0 {
			s.set(StateTailing, nil)
			if !wait() {
				return
			}
			continue
		}
		var pageErr error
		for _, e := range page.Entries {
			verifyStart := time.Now()
			if pageErr = lf.Apply(s.shard, e); pageErr != nil {
				break
			}
			t.stages.GetFollowerVerify().ObserveSince(verifyStart)
			cursor = e.Seq
		}
		s.observe(cursor, page.LeaderSeq)
		switch {
		case pageErr == nil:
			s.set(StateTailing, nil)
			backoff = t.opts.Poll // progress: drain the next page immediately
			continue
		case errors.Is(pageErr, ErrDivergence):
			s.set(StateHalted, pageErr)
			return
		}
		// Sequence gap or transient engine trouble: resync the cursor from
		// the local shard, keep the error visible in the status, and
		// refetch after a backoff.
		if seq, serr := lf.Seq(s.shard); serr == nil {
			cursor = seq
		}
		s.set(StateSyncing, pageErr)
		if !wait() {
			return
		}
	}
}

// Status reports the tailed feed's replication health. Before the tail
// first arms it reports StateSyncing with no shards.
func (t *FeedTail) Status() FeedStatus {
	t.mu.Lock()
	fs := FeedStatus{ID: t.id, State: t.state}
	if t.err != nil {
		fs.Error = t.err.Error()
	}
	shards := t.shards
	t.mu.Unlock()
	for _, s := range shards {
		s.mu.Lock()
		ss := ShardStatus{Shard: s.shard, Seq: s.cursor, LeaderSeq: s.leaderSeq, State: s.state}
		if s.leaderSeq > s.cursor {
			ss.Lag = s.leaderSeq - s.cursor
		}
		if s.err != nil {
			ss.Error = s.err.Error()
		}
		s.mu.Unlock()
		fs.Shards = append(fs.Shards, ss)
		if stateRank[ss.State] > stateRank[fs.State] {
			fs.State = ss.State
		}
	}
	return fs
}

// stateRank orders shard states by severity for the feed-level rollup.
var stateRank = map[string]int{StateTailing: 0, StateSyncing: 1, StateGone: 2, StateFailed: 3, StateHalted: 4}

// Halted reports whether any shard of the tailed feed halted on a detected
// divergence, with the first halted shard's error message when so.
func (t *FeedTail) Halted() (bool, string) {
	for _, ss := range t.Status().Shards {
		if ss.State == StateHalted {
			return true, ss.Error
		}
	}
	return false, ""
}

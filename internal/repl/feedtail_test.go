package repl_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/server"
)

const waitTimeout = 30 * time.Second

// fastOpts keeps test tails snappy.
func fastOpts(leaderURL string) repl.Options {
	return repl.Options{
		Leader: leaderURL,
		Poll:   2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		MaxBatches: 8,
	}
}

// startTail starts a FeedTail replicating feed id from leaderURL into g.
func startTail(t *testing.T, leaderURL string, g *server.Gateway, id string) *repl.FeedTail {
	t.Helper()
	ft := repl.NewFeedTail(fastOpts(leaderURL), g.ClusterLocal(), id)
	ft.Start()
	t.Cleanup(ft.Close)
	return ft
}

// waitStatus polls the tail's status until cond holds.
func waitStatus(t *testing.T, ft *repl.FeedTail, what string, cond func(repl.FeedStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for {
		fs := ft.Status()
		if cond(fs) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, fs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// converged reports whether every shard of the feed is tailing with zero
// observed lag.
func converged(fs repl.FeedStatus) bool {
	if fs.State != repl.StateTailing || len(fs.Shards) == 0 {
		return false
	}
	for _, ss := range fs.Shards {
		if ss.State != repl.StateTailing || ss.Lag != 0 {
			return false
		}
	}
	return true
}

func waitConverged(t *testing.T, ft *repl.FeedTail) {
	t.Helper()
	waitStatus(t, ft, "convergence", converged)
}

func inState(state string) func(repl.FeedStatus) bool {
	return func(fs repl.FeedStatus) bool { return fs.State == state }
}

// startGateway serves a gateway over a test HTTP server.
func startGateway(t *testing.T, gopts server.GatewayOptions) (*server.Gateway, string) {
	t.Helper()
	g, err := server.NewGatewayWithOptions(gopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewHandler(g))
	t.Cleanup(srv.Close)
	t.Cleanup(g.Close)
	return g, srv.URL
}

// writeBatches drives n write batches into one feed through the gateway.
func writeBatches(t *testing.T, g *server.Gateway, id string, n, from int) {
	t.Helper()
	for b := 0; b < n; b++ {
		ops := make([]server.Op, 8)
		for i := range ops {
			ops[i] = server.Op{Type: "write", Key: fmt.Sprintf("k%03d", (from+b)*5+i), Value: []byte(fmt.Sprintf("v%d.%d", from+b, i))}
		}
		if _, err := g.Do(id, ops); err != nil {
			t.Fatal(err)
		}
	}
}

// rootsOf fetches a feed's per-shard anchors straight from a gateway.
func rootsOf(t *testing.T, g *server.Gateway, id string) []query.RootInfo {
	t.Helper()
	e, err := g.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := e.Roots()
	if err != nil {
		t.Fatal(err)
	}
	return roots
}

func assertSameRoots(t *testing.T, id string, leader, follower *server.Gateway) {
	t.Helper()
	lr, fr := rootsOf(t, leader, id), rootsOf(t, follower, id)
	if len(lr) != len(fr) {
		t.Fatalf("feed %q shard counts differ: %d vs %d", id, len(lr), len(fr))
	}
	for i := range lr {
		if lr[i].Root != fr[i].Root || lr[i].Count != fr[i].Count || lr[i].Seq != fr[i].Seq {
			t.Errorf("feed %q shard %d anchors differ:\n leader   %+v\n follower %+v", id, i, lr[i], fr[i])
		}
	}
}

// rootsMatch reports whether the follower currently serves the leader's
// exact per-shard anchors (false while the feed is still being created or
// shipped — the tailers' own convergence signal is stale by one poll).
func rootsMatch(id string, leader, follower *server.Gateway) bool {
	le, err := leader.Query(id)
	if err != nil {
		return false
	}
	lr, err := le.Roots()
	if err != nil {
		return false
	}
	fe, err := follower.Query(id)
	if err != nil {
		return false
	}
	fr, err := fe.Roots()
	if err != nil || len(lr) != len(fr) {
		return false
	}
	for i := range lr {
		if lr[i].Root != fr[i].Root || lr[i].Count != fr[i].Count || lr[i].Seq != fr[i].Seq {
			return false
		}
	}
	return true
}

// waitSameRoots polls until the follower serves the leader's anchors, then
// asserts the match (for a readable failure on timeout).
func waitSameRoots(t *testing.T, id string, leader, follower *server.Gateway) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !rootsMatch(id, leader, follower) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	assertSameRoots(t, id, leader, follower)
}

// TestFollowerCatchUpAndTail covers the main path: a cold tail mirrors its
// feed (existing history and live writes), a tail started before its feed
// exists arms once the leader creates it, and a feed deleted on the leader
// is marked gone without deleting local state.
func TestFollowerCatchUpAndTail(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "alpha", Shards: 4, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "alpha", 10, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	alpha := startTail(t, leaderURL, fg, "alpha")
	waitConverged(t, alpha)
	waitSameRoots(t, "alpha", leader, fg)

	// Live tail: more writes after convergence.
	writeBatches(t, leader, "alpha", 6, 10)
	waitSameRoots(t, "alpha", leader, fg)

	// A tail whose feed the leader does not host yet parks as gone, then
	// arms and replicates once the feed is created.
	beta := startTail(t, leaderURL, fg, "beta")
	waitStatus(t, beta, "beta gone before creation", inState(repl.StateGone))
	if err := leader.CreateFeed(server.FeedConfig{ID: "beta", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "beta", 4, 0)
	waitSameRoots(t, "beta", leader, fg)

	// Deleting beta on the leader marks it gone on the replica; the
	// replicated state stays readable locally.
	if err := leader.CloseFeed("beta"); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, beta, "beta gone after delete", inState(repl.StateGone))
	if _, err := fg.Query("beta"); err != nil {
		t.Errorf("gone feed's local state should stay readable: %v", err)
	}

	// Recreating beta on the leader re-arms the tail instead of leaving
	// it parked as gone. The leader's fresh history restarts at seq 0
	// while the replica's retained beta is ahead, so the tailers halt
	// with a clear divergence (the operator deletes the stale local feed)
	// — the point is the feed is watched again, not silently stuck.
	if err := leader.CreateFeed(server.FeedConfig{ID: "beta", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, beta, "recreated beta re-armed", inState(repl.StateHalted))
}

// TestFollowerSnapshotBootstrap starts a follower against a leader whose
// retained log window is far behind its history: catch-up must go through
// the verified snapshot, then tail the remaining log.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{ReplRetain: 3})
	if err := leader.CreateFeed(server.FeedConfig{ID: "deep", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "deep", 20, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	waitConverged(t, startTail(t, leaderURL, fg, "deep"))
	assertSameRoots(t, "deep", leader, fg)

	// The replicated state serves verified reads: spot-check one proof.
	e, err := fg.Query("deep")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Get("k005")
	if err != nil {
		t.Fatal(err)
	}
	if err := query.VerifyGet("k005", res); err != nil {
		t.Errorf("replicated read failed verification: %v", err)
	}
}

// TestFollowerConfigMismatchFails: a local feed with the same ID but a
// different config must refuse to adopt the leader's log.
func TestFollowerConfigMismatchFails(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "clash", Shards: 4}); err != nil {
		t.Fatal(err)
	}
	fg, _ := startGateway(t, server.GatewayOptions{})
	if err := fg.CreateFeed(server.FeedConfig{ID: "clash", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, startTail(t, leaderURL, fg, "clash"), "config mismatch", func(fs repl.FeedStatus) bool {
		return fs.State == repl.StateFailed && strings.Contains(fs.Error, "different config")
	})
}

// tamperOnce wraps a leader handler and flips one byte inside the first
// write op of the first log entry it serves after arming — a compromised
// leader (or path) shipping a corrupted batch.
type tamperOnce struct {
	next  http.Handler
	mu    sync.Mutex
	armed bool
	done  bool
}

func (tp *tamperOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tp.mu.Lock()
	active := tp.armed && !tp.done
	tp.mu.Unlock()
	if !active || !strings.HasSuffix(r.URL.Path, "/log") {
		tp.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	tp.next.ServeHTTP(rec, r)
	var page repl.LogPage
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &page) == nil && flipFirstWrite(&page) {
		tp.mu.Lock()
		tp.done = true
		tp.mu.Unlock()
		body, _ := json.Marshal(page)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// flipFirstWrite flips one byte inside the first write op of the page and
// reports whether the page carried one.
func flipFirstWrite(page *repl.LogPage) bool {
	for ei := range page.Entries {
		for oi := range page.Entries[ei].Ops {
			if op := &page.Entries[ei].Ops[oi]; op.Type == "write" && len(op.Value) > 0 {
				op.Value[0] ^= 0x01 // the flipped byte
				return true
			}
		}
	}
	return false
}

func (tp *tamperOnce) arm() {
	tp.mu.Lock()
	tp.armed = true
	tp.mu.Unlock()
}

// TestFollowerTamperedBatchHaltsShard ships one tampered batch: the anchor
// check must catch the flipped byte, halt that shard's replication, and the
// follower must keep serving its last verified state instead of the fork.
func TestFollowerTamperedBatchHaltsShard(t *testing.T) {
	leaderGW, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaderGW.Close)
	tp := &tamperOnce{next: server.NewHandler(leaderGW)}
	srv := httptest.NewServer(tp)
	t.Cleanup(srv.Close)

	if err := leaderGW.CreateFeed(server.FeedConfig{ID: "t", Shards: 1, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leaderGW, "t", 5, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	ft := startTail(t, srv.URL, fg, "t")
	waitConverged(t, ft)
	cleanRoots := rootsOf(t, fg, "t")

	tp.arm()
	writeBatches(t, leaderGW, "t", 1, 5)

	waitStatus(t, ft, "tampered batch halts the shard", inState(repl.StateHalted))
	if ss := ft.Status().Shards[0]; !strings.Contains(ss.Error, "diverged") {
		t.Fatalf("halt without divergence detail: %+v", ss)
	}

	// The forked state was never published: the follower still serves the
	// pre-tamper anchors, and they still verify.
	after := rootsOf(t, fg, "t")
	if after[0].Root != cleanRoots[0].Root || after[0].Seq != cleanRoots[0].Seq {
		t.Errorf("follower published past the divergence: %+v vs %+v", after[0], cleanRoots[0])
	}
	e, _ := fg.Query("t")
	res, err := e.Get("k000")
	if err != nil {
		t.Fatal(err)
	}
	if err := query.VerifyGet("k000", res); err != nil {
		t.Errorf("pre-tamper state stopped verifying: %v", err)
	}
}

// TestFollowerCrashRestartMidCatchUp kills a persistent follower at three
// cut points during catch-up; each restart must resume from the follower's
// own WAL and cursor and converge to the leader's roots. (The satellite
// case of the replication design: follower durability composes with
// replication without any extra protocol.)
func TestFollowerCrashRestartMidCatchUp(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "f", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	const history = 30
	writeBatches(t, leader, "f", history, 0)

	for _, cut := range []int{2, 8, 20} {
		cut := cut
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			// Phase 1: catch up until some shard passes the cut point,
			// then crash (no final snapshot, no flush).
			fg, err := server.NewGatewayWithOptions(server.GatewayOptions{DataDir: dir, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			ft := startTail(t, leaderURL, fg, "f")
			waitStatus(t, ft, fmt.Sprintf("cut point %d", cut), func(fs repl.FeedStatus) bool {
				for _, ss := range fs.Shards {
					if ss.Seq >= uint64(cut) {
						return true
					}
				}
				return false
			})
			ft.Close()
			fg.Kill() // simulated crash

			// Phase 2: recover from the follower's own store and resume.
			fg2, err := server.NewGatewayWithOptions(server.GatewayOptions{DataDir: dir, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fg2.Close)
			waitConverged(t, startTail(t, leaderURL, fg2, "f"))
			assertSameRoots(t, "f", leader, fg2)
		})
	}
}

// TestFollowerAheadOfLeaderHalts: a follower whose local history is ahead
// of the leader (wrong leader, local writes) must halt, not fork.
func TestFollowerAheadOfLeaderHalts(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "x", Shards: 1, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "x", 2, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	if err := fg.CreateFeed(server.FeedConfig{ID: "x", Shards: 1, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, fg, "x", 5, 0) // local history ahead of the leader's 2

	ft := startTail(t, leaderURL, fg, "x")
	waitStatus(t, ft, "replica-ahead halt", inState(repl.StateHalted))
	if ss := ft.Status().Shards[0]; !strings.Contains(ss.Error, "ahead of leader") {
		t.Fatalf("unexpected halt detail: %+v", ss)
	}
}

package repl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/repl"
	"grub/internal/server"
)

// swapHandler is a stable HTTP front whose backing handler can be swapped
// atomically — it models a leader process dying and restarting at the same
// address (new gateway, same URL), which is what the learners' resume
// logic has to survive.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// downHandler answers every request the way a dead process's load balancer
// would.
var downHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, `{"error":"leader down"}`, http.StatusServiceUnavailable)
})

// tamperTransport flips one byte in every log page it carries: a
// compromised owner (or network path) that keeps shipping corrupted
// batches. It sits in a learner's cluster.Options.HTTP, because placement
// names the real owner URL.
type tamperTransport struct{ next http.RoundTripper }

func (tt tamperTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tt.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/log") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var page repl.LogPage
	if json.Unmarshal(body, &page) == nil && flipFirstWrite(&page) {
		body, _ = json.Marshal(page)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// startLearner serves a fresh gateway as a cluster learner of the voter at
// voterURL, with fast test cadences; httpc (nil = default) carries its
// heartbeats and tails.
func startLearner(t *testing.T, voterURL string, httpc *http.Client) (*server.Gateway, *cluster.Node, string) {
	t.Helper()
	g, _ := startGateway(t, server.GatewayOptions{})
	srv := httptest.NewUnstartedServer(nil)
	url := "http://" + srv.Listener.Addr().String()
	node, err := cluster.NewNode(cluster.Options{
		Self: url, Peers: []string{voterURL}, Learner: true, Local: g.ClusterLocal(),
		Heartbeat: 10 * time.Millisecond, TailPoll: 2 * time.Millisecond, HTTP: httpc,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = server.NewHandlerConfig(g, server.HandlerConfig{Cluster: node})
	srv.Start()
	t.Cleanup(srv.Close)
	node.Start()
	t.Cleanup(node.Close)
	return g, node, url
}

// tailHalted reports whether the node's tail of feed halted on a detected
// divergence.
func tailHalted(node *cluster.Node, feed string) bool {
	for _, fp := range node.Status().Feeds {
		if fp.Feed == feed && fp.Tail != nil {
			for _, ss := range fp.Tail.Shards {
				if ss.State == repl.StateHalted && strings.Contains(ss.Error, "diverged") {
					return true
				}
			}
		}
	}
	return false
}

// TestReplicatedGatewayEndToEnd is the acceptance run for the replication
// subsystem, race-enabled like every test in this repo:
//
//   - one durable voter (a one-voter cluster), two learners, sustained
//     concurrent writes;
//   - 32 VerifyingClient readers split across the two learners, every
//     Merkle proof client-checked against pinned anchors;
//   - the voter process is killed mid-load and restarted from its data
//     directory at the same address; the learners resume tailing;
//   - when the dust settles, the per-shard (seq, root, count) anchors on
//     all three nodes are identical;
//   - a third learner whose transport flips log bytes is caught by the
//     anchor check and halts instead of serving a forked state.
func TestReplicatedGatewayEndToEnd(t *testing.T) {
	const (
		feedID      = "e2e"
		shards      = 4
		writers     = 2
		batchesPer  = 24
		opsPerBatch = 8
		readers     = 32
	)
	dir := t.TempDir()
	gopts := server.GatewayOptions{DataDir: dir, SnapshotEvery: 8}

	front := &swapHandler{}
	front.set(downHandler)
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	leaderURL := srv.URL
	// startLeader recovers the voter from its data directory, placement
	// map included, and puts it behind the stable front.
	startLeader := func() (*server.Gateway, *cluster.Node) {
		g, err := server.NewGatewayWithOptions(gopts)
		if err != nil {
			t.Fatal(err)
		}
		node, err := cluster.NewNode(cluster.Options{
			Self: leaderURL, Local: g.ClusterLocal(), StatePath: filepath.Join(dir, "cluster.json"),
			Heartbeat: 10 * time.Millisecond, TailPoll: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		front.set(server.NewHandlerConfig(g, server.HandlerConfig{Cluster: node}))
		node.Start()
		return g, node
	}
	leader, leaderNode := startLeader()

	admin := server.NewClient(leaderURL)
	if err := admin.CreateFeed(server.FeedConfig{ID: feedID, Shards: shards, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}

	// Two learners, each serving the authenticated read path from its
	// replica.
	type fnode struct {
		gw  *server.Gateway
		url string
	}
	startReplica := func() fnode {
		g, _, url := startLearner(t, leaderURL, nil)
		return fnode{gw: g, url: url}
	}
	f1, f2 := startReplica(), startReplica()

	// Sustained writes: each writer retries through the leader outage, so
	// the full history lands eventually.
	var (
		writersWG sync.WaitGroup
		written   atomic.Int64
	)
	for wi := 0; wi < writers; wi++ {
		writersWG.Add(1)
		go func(wi int) {
			defer writersWG.Done()
			c := server.NewClient(leaderURL)
			for b := 0; b < batchesPer; b++ {
				ops := make([]server.Op, opsPerBatch)
				for i := range ops {
					ops[i] = server.Op{
						Type:  "write",
						Key:   fmt.Sprintf("w%d-k%03d", wi, (b*opsPerBatch+i)%96),
						Value: []byte(fmt.Sprintf("w%d.b%d.i%d", wi, b, i)),
					}
				}
				for {
					if _, err := c.Do(feedID, ops); err == nil {
						written.Add(1)
						break
					}
					time.Sleep(5 * time.Millisecond) // leader down: retry
				}
			}
		}(wi)
	}

	// Both learners must have discovered and created the feed before the
	// readers aim at them.
	waitFor(t, "learners discover the feed", func() bool {
		_, e1 := f1.gw.Query(feedID)
		_, e2 := f2.gw.Query(feedID)
		return e1 == nil && e2 == nil
	})

	// 32 verifying light clients split across the two learners; every
	// proof is re-verified against pinned per-shard anchors, a rejection
	// fails the run.
	stopReaders := make(chan struct{})
	var (
		readersWG sync.WaitGroup
		verified  atomic.Int64
		readErrs  = make(chan error, readers)
	)
	for ri := 0; ri < readers; ri++ {
		readersWG.Add(1)
		go func(ri int) {
			defer readersWG.Done()
			url := f1.url
			if ri%2 == 1 {
				url = f2.url
			}
			vc := server.NewVerifyingClient(url)
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%03d", i%writers, (i*7)%96)
				if i%5 == 4 {
					key = fmt.Sprintf("ghost-%d-%d", ri, i) // absence proof
				}
				if _, err := vc.Get(feedID, key); err != nil {
					readErrs <- fmt.Errorf("reader %d: %w", ri, err)
					return
				}
				if i%64 == 63 {
					if _, err := vc.Range(feedID, "w0-k000", "w0-k050"); err != nil {
						readErrs <- fmt.Errorf("reader %d range: %w", ri, err)
						return
					}
				}
				verified.Add(1)
			}
		}(ri)
	}

	// Let load build, then kill the leader process mid-flight.
	waitFor(t, "pre-kill load", func() bool { return written.Load() >= 8 })
	front.set(downHandler)
	leaderNode.Close()
	leader.Kill()

	// The outage is visible to the learners (they keep serving reads the
	// whole time — that is the warm-standby story).
	time.Sleep(30 * time.Millisecond)

	// Restart: recover the gateway and its placement from the data
	// directory at the same address.
	leader2, leaderNode2 := startLeader()
	t.Cleanup(leader2.Close)
	t.Cleanup(leaderNode2.Close)

	writersWG.Wait() // every batch eventually landed
	if got := written.Load(); got < writers*batchesPer {
		t.Fatalf("only %d batches written", got)
	}

	// Learners resume tailing and converge to the restarted voter's exact
	// anchors.
	deadline := time.Now().Add(waitTimeout)
	for !(rootsMatch(feedID, leader2, f1.gw) && rootsMatch(feedID, leader2, f2.gw)) {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopReaders)
	readersWG.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Errorf("verified reader rejected a proof: %v", err)
	}
	if verified.Load() == 0 {
		t.Fatal("readers verified nothing")
	}
	assertSameRoots(t, feedID, leader2, f1.gw)
	assertSameRoots(t, feedID, leader2, f2.gw)
	t.Logf("e2e: %d batches written, %d reads verified across 2 learners through a voter restart",
		written.Load(), verified.Load())

	// A third learner whose transport flips a byte in every log page: the
	// anchor check must catch it; the shard halts (the one verified reset
	// the cluster allows per epoch meets the same tampering and halts
	// again) and the node keeps serving its last verified state — never
	// the fork.
	fg3, n3, _ := startLearner(t, leaderURL, &http.Client{
		Timeout: 5 * time.Second, Transport: tamperTransport{http.DefaultTransport},
	})

	// The cold node may bootstrap straight to the tip via a (tamper-proof,
	// anchor-verified) snapshot; keep writing so fresh log pages flow
	// through the tampering path until the flipped byte lands.
	deadline = time.Now().Add(waitTimeout)
	for i := 0; !tailHalted(n3, feedID); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("tampered learner never halted: %+v", n3.Status().Feeds)
		}
		ops := []server.Op{{Type: "write", Key: fmt.Sprintf("w0-k%03d", i%96), Value: []byte(fmt.Sprintf("tamper-bait-%d", i))}}
		if _, err := admin.Do(feedID, ops); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The halted node still answers verifiably from its pre-divergence
	// state: a VerifyingClient accepts its proofs (served off the last
	// verified views), it just reports stale anchors rather than forked
	// ones.
	leaderRoots := rootsOf(t, leader2, feedID)
	f3Roots := rootsOf(t, fg3, feedID)
	halted := 0
	for i := range f3Roots {
		if f3Roots[i].Seq < leaderRoots[i].Seq {
			halted++
		}
	}
	if halted == 0 {
		t.Error("tampered learner caught up fully — the flipped byte was not refused")
	}
}

// waitFor polls cond until it holds or the shared deadline elapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

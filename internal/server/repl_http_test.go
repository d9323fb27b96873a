package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/repl"
)

// startLearnerPair brings up a one-voter cluster plus one learner
// following it, with fast test cadences; mod as in startTestClusterCfg
// (node 0 is the voter, node 1 the learner). It returns once the learner
// has heard from the voter, so it can place and route writes.
func startLearnerPair(t *testing.T, mod func(i int, gopts *GatewayOptions, hc *HandlerConfig)) (voter, learner *testClusterNode) {
	t.Helper()
	nodes := startTestClusterCfg(t, 1, 1, mod)
	deadline := time.Now().Add(30 * time.Second)
	for !nodes[1].node.Status().Quorum {
		if time.Now().After(deadline) {
			t.Fatal("learner never heard from its voter")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nodes[0], nodes[1]
}

// waitReplicated polls until the learner serves feed with the voter's
// exact per-shard anchors.
func waitReplicated(t *testing.T, voter, learner *testClusterNode, feed string) {
	t.Helper()
	waitAnchorsEqual(t, []*testClusterNode{voter, learner}, feed, 30*time.Second)
}

// TestReplEndpoints exercises the leader's log-shipping surface over HTTP:
// feed configs, log paging from a cursor, the retained-window floor and the
// snapshot bootstrap.
func TestReplEndpoints(t *testing.T) {
	g, err := NewGatewayWithOptions(GatewayOptions{ReplRetain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	if err := g.CreateFeed(FeedConfig{ID: "r", Shards: 2, EpochOps: 4, K: 3}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		ops := make([]Op, 4)
		for i := range ops {
			ops[i] = Op{Type: "write", Key: fmt.Sprintf("k%02d", b*4+i), Value: []byte("v")}
		}
		if _, err := g.Do("r", ops); err != nil {
			t.Fatal(err)
		}
	}

	rc := repl.NewClient(srv.URL)
	infos, err := rc.Feeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "r" {
		t.Fatalf("repl feeds = %+v", infos)
	}
	var cfg FeedConfig
	if err := json.Unmarshal(infos[0].Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 2 || cfg.K != 3 || cfg.EpochOps != 4 {
		t.Errorf("leader config lost fields: %+v", cfg)
	}

	for sh := 0; sh < 2; sh++ {
		page, err := rc.Log("r", sh, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if page.LeaderSeq == 0 {
			t.Fatalf("shard %d never applied a batch", sh)
		}
		if page.LeaderSeq > 4 {
			// Deep history: the window slid, cursor 0 must bootstrap.
			if !page.SnapshotRequired {
				t.Errorf("shard %d: cursor 0 below floor %d should demand a snapshot", sh, page.FloorSeq)
			}
			snap, err := rc.Snapshot("r", sh)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Seq != page.LeaderSeq || snap.Feed == nil || snap.Count == 0 {
				t.Errorf("shard %d snapshot = seq %d count %d", sh, snap.Seq, snap.Count)
			}
			continue
		}
		// Shallow history pages out in order from the cursor.
		if page.SnapshotRequired || len(page.Entries) == 0 || page.Entries[0].Seq != 1 {
			t.Errorf("shard %d page = %+v", sh, page)
		}
		for i, e := range page.Entries {
			if e.Seq != uint64(i+1) || e.Count == 0 {
				t.Errorf("shard %d entry %d = seq %d count %d", sh, i, e.Seq, e.Count)
			}
		}
	}

	// Error paths: unknown feed is 404 (ErrFeedGone), bad shard is 400.
	if _, err := rc.Log("nope", 0, 0, 1); err == nil || !strings.Contains(err.Error(), "not on leader") {
		t.Errorf("unknown feed log fetch: %v", err)
	}
	if _, err := rc.Log("r", 9, 0, 1); err == nil {
		t.Error("out-of-range shard accepted")
	}
	resp, err := http.Get(srv.URL + "/repl/feeds/r/shards/9/log")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shard = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestLearnerWritesReachOwner pins the learner write contract: every
// mutating route is proxied to the owner voter like on any non-owner, the
// learner's replica changes only through its tail, and reads — including
// the authenticated read path — serve locally from that replica.
func TestLearnerWritesReachOwner(t *testing.T) {
	voter, learner := startLearnerPair(t, nil)
	vc := NewClient(voter.url)
	if err := vc.CreateFeed(FeedConfig{ID: "w", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Do("w", []Op{{Type: "write", Key: "a", Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, voter, learner, "w")

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/feeds", `{"id":"new"}`, http.StatusCreated},
		{http.MethodPost, "/feeds/w/ops", `{"ops":[{"type":"write","key":"a","value":"Mg=="}]}`, http.StatusOK},
		{http.MethodDelete, "/feeds/new", "", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, learner.url+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s via learner = HTTP %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	if got := learner.node.Status().ForwardsTotal; got != 3 {
		t.Errorf("learner proxied %d writes, want 3", got)
	}
	// The write landed on the owner...
	res, err := voter.g.Do("w", []Op{{Type: "read", Key: "a"}})
	if err != nil || !res[0].Found || string(res[0].Value) != "2" {
		t.Fatalf("owner read after learner write = %+v (err %v)", res, err)
	}
	// ...and reaches the learner only through its verified tail: the
	// learner's replica is the owner's, anchor for anchor, and it never
	// owned anything.
	waitReplicated(t, voter, learner, "w")
	for _, fp := range learner.node.Status().Feeds {
		if fp.Owner == learner.url || (fp.Role != "follower" && fp.Role != "deleted") {
			t.Errorf("learner took a role in %+v", fp)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := NewVerifyingClient(learner.url).Get("w", "a")
		if err == nil && res.Found && string(res.Record.Value) == "2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("learner never served the verified write (last %+v, err %v)", res, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	health, err := NewClient(learner.url).Health()
	if err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Cluster == nil || !health.Cluster.Learner {
		t.Errorf("learner healthz = %+v", health)
	}
}

// forwardedMarker stamps every request with the cluster hop marker, the
// way a proxying node with a stale placement map would send it.
type forwardedMarker struct{}

func (forwardedMarker) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(cluster.ForwardedHeader, "1")
	return http.DefaultTransport.RoundTrip(r)
}

// TestClientAutoFollowsLeader: a Client pointed at a learner lands its
// writes on the owner. Client originals are proxied by the learner; an
// already-forwarded request gets 421 + Leader naming the owner, which the
// client follows exactly once.
func TestClientAutoFollowsLeader(t *testing.T) {
	voter, learner := startLearnerPair(t, nil)

	c := NewClient(learner.url)
	if err := c.CreateFeed(FeedConfig{ID: "auto", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatalf("create via learner: %v", err)
	}
	results, err := c.Do("auto", []Op{{Type: "write", Key: "k", Value: []byte("v")}})
	if err != nil || len(results) != 1 {
		t.Fatalf("ops via learner: %v (%d results)", err, len(results))
	}

	// The 421 path: the learner refuses to proxy a second hop and names
	// the owner; the client follows the Leader header to it.
	marked := NewClient(learner.url)
	marked.HTTP = &http.Client{Transport: forwardedMarker{}}
	if err := marked.CreateFeed(FeedConfig{ID: "auto2", Shards: 1, EpochOps: 1}); err != nil {
		t.Fatalf("create via 421: %v", err)
	}
	ownerIndex(t, []*testClusterNode{voter, learner}, "auto", 30*time.Second)
	if _, err := marked.Do("auto", []Op{{Type: "write", Key: "k2", Value: []byte("v2")}}); err != nil {
		t.Fatalf("ops via 421: %v", err)
	}
	if got := learner.node.Status().ForwardsTotal; got != 2 {
		t.Errorf("learner proxied %d requests, want 2 (the marked ones are redirected)", got)
	}

	// Every write landed on the owner, and replication brings them back to
	// the learner.
	for _, key := range []string{"k", "k2"} {
		res, err := voter.g.Do("auto", []Op{{Type: "read", Key: key}})
		if err != nil || !res[0].Found {
			t.Fatalf("write %s did not land on the owner: %+v (err %v)", key, res, err)
		}
	}
	if _, err := voter.g.Stats("auto2"); err != nil {
		t.Errorf("redirected create did not land on the owner: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := NewVerifyingClient(learner.url).Get("auto", "k2")
		if err == nil && res.Found && string(res.Record.Value) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redirected write never replicated back (err %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsEndpoint scrapes /metrics on a standalone gateway and on
// both members of a voter+learner pair: every cluster node renders the
// grub_repl_* gauges of the feeds it tails.
func TestMetricsEndpoint(t *testing.T) {
	scrape := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics = HTTP %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("metrics content-type = %q", ct)
		}
		return readAll(t, resp)
	}
	load := func(g *Gateway) {
		if err := g.CreateFeed(FeedConfig{ID: "m", Shards: 2, EpochOps: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Do("m", []Op{{Type: "write", Key: "a", Value: []byte("1")}, {Type: "read", Key: "a"}}); err != nil {
			t.Fatal(err)
		}
	}

	lone := NewGateway()
	defer lone.Close()
	loneSrv := httptest.NewServer(NewHandler(lone))
	defer loneSrv.Close()
	load(lone)
	out := scrape(loneSrv.URL)
	for _, want := range []string{
		"grub_gateway_feeds 1",
		`grub_feed_ops_total{feed="m"} 2`,
		`grub_feed_gas_total{feed="m"}`,
		`grub_feed_delivered_total{feed="m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("standalone metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "grub_repl_") {
		t.Errorf("standalone gateway renders replication gauges:\n%s", out)
	}

	voter, learner := startLearnerPair(t, nil)
	if err := NewClient(voter.url).CreateFeed(FeedConfig{ID: "m", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(voter.url).Do("m", []Op{{Type: "write", Key: "a", Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, voter, learner, "m")
	wants := []string{
		`grub_repl_lag{feed="m",shard="0"} 0`,
		`grub_repl_lag{feed="m",shard="1"} 0`,
		`grub_repl_state{feed="m",shard="0"} 0`,
		`grub_repl_seq{feed="m",shard=`,
		`grub_repl_leader_seq{feed="m",shard=`,
	}
	deadline := time.Now().Add(30 * time.Second)
	for missing := wants; len(missing) > 0; {
		out = scrape(learner.url)
		missing = missing[:0:0]
		for _, want := range wants {
			if !strings.Contains(out, want) {
				missing = append(missing, want)
			}
		}
		if len(missing) > 0 && time.Now().After(deadline) {
			t.Fatalf("learner metrics missing %q:\n%s", missing, out)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The owner tails nothing, so it renders no per-shard tail gauges.
	if out := scrape(voter.url); strings.Contains(out, `grub_repl_seq{`) {
		t.Errorf("owner renders tail gauges for a feed it owns:\n%s", out)
	}

	// /cluster/status carries the same tail health as JSON.
	st, err := (&cluster.Client{}).Status(learner.url)
	if err != nil || !st.Learner || len(st.Feeds) != 1 || st.Feeds[0].Tail == nil || len(st.Feeds[0].Tail.Shards) != 2 {
		t.Errorf("learner cluster status = %+v (err %v)", st, err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

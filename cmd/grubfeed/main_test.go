package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/server"
)

func TestPolicies(t *testing.T) {
	for _, pol := range []string{"memoryless", "memorizing", "bl1", "bl2"} {
		var buf bytes.Buffer
		if err := run([]string{"-ops", "48", "-epoch", "8", "-policy", pol}, &buf); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
		if !strings.Contains(buf.String(), "results: delivered=") {
			t.Errorf("policy %s: results line missing:\n%s", pol, buf.String())
		}
	}
}

func TestUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policy", "bogus"}, &buf); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestLoadStandalone runs the gateway load driver end to end against an
// in-process gateway (run with -race this covers the whole HTTP stack).
func TestLoadStandalone(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-load", "-feeds", "3", "-clients", "6", "-batches", "2",
		"-batch", "4", "-records", "8", "-workload", "B"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ops/sec") {
		t.Errorf("throughput line missing:\n%s", out)
	}
	if !strings.Contains(out, "load0") || !strings.Contains(out, "load2") {
		t.Errorf("per-feed rows missing:\n%s", out)
	}
}

// TestLoadSharded drives the load path with sharded feeds.
func TestLoadSharded(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-load", "-feeds", "2", "-clients", "4", "-batches", "2",
		"-batch", "4", "-records", "8", "-workload", "B", "-shards", "4"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4 shards each") {
		t.Errorf("shard banner missing:\n%s", out)
	}
	if !strings.Contains(out, "ops/sec") {
		t.Errorf("throughput line missing:\n%s", out)
	}
}

// TestLoadPersistentGateway points the load driver at a gateway running
// with a data directory: the summary must report the data-dir and the
// snapshot count.
func TestLoadPersistentGateway(t *testing.T) {
	dir := t.TempDir()
	g, err := server.NewGatewayWithOptions(server.GatewayOptions{DataDir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(server.NewHandler(g))
	defer srv.Close()

	var buf bytes.Buffer
	args := []string{"-load", "-gateway", srv.URL, "-feeds", "2", "-clients", "4",
		"-batches", "3", "-batch", "4", "-records", "8", "-workload", "B"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "persistence: data-dir "+dir) {
		t.Errorf("data-dir line missing:\n%s", out)
	}
	if !strings.Contains(out, "snapshots taken") {
		t.Errorf("snapshot count missing:\n%s", out)
	}
	// The in-memory standalone path must NOT claim persistence.
	var memBuf bytes.Buffer
	memArgs := []string{"-load", "-feeds", "1", "-clients", "2", "-batches", "1",
		"-batch", "4", "-records", "8", "-workload", "B"}
	if err := run(memArgs, &memBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(memBuf.String(), "persistence:") {
		t.Errorf("in-memory load claims persistence:\n%s", memBuf.String())
	}
}

func TestLoadUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-load", "-workload", "Z"}, &buf); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestLoadRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-load", "-feeds", "0"},
		{"-load", "-clients", "0"},
		{"-load", "-batches", "-1"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestVerifyStandalone drives the authenticated read path end to end: an
// in-process gateway, concurrent verifying light clients, every proof
// checked against the advertised roots.
func TestVerifyStandalone(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-verify", "-clients", "4", "-reads", "8",
		"-records", "24", "-shards", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "verified ops/sec") || !strings.Contains(out, "proof bytes/op") {
		t.Errorf("verify summary missing:\n%s", out)
	}
	if !strings.Contains(out, "shard 0 root") || !strings.Contains(out, "shard 1 root") {
		t.Errorf("per-shard root lines missing:\n%s", out)
	}
}

// serveMember serves a fresh gateway as a cluster member with fast test
// cadences: a one-voter cluster when voters is empty, else a learner
// following them. It returns the member's base URL.
func serveMember(t *testing.T, voters ...string) string {
	t.Helper()
	g := server.NewGateway()
	t.Cleanup(g.Close)
	srv := httptest.NewUnstartedServer(nil)
	url := "http://" + srv.Listener.Addr().String()
	node, err := cluster.NewNode(cluster.Options{
		Self: url, Peers: voters, Learner: len(voters) > 0, Local: g.ClusterLocal(),
		Heartbeat: 10 * time.Millisecond, TailPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = server.NewHandlerConfig(g, server.HandlerConfig{Cluster: node})
	srv.Start()
	t.Cleanup(srv.Close)
	node.Start()
	t.Cleanup(node.Close)
	return url
}

// TestVerifyAgainstReplicas spreads the verified readers across learners:
// a one-voter cluster takes the writes, two learners replicate them, and
// every proof verifies against the replicas' advertised roots.
func TestVerifyAgainstReplicas(t *testing.T) {
	leaderURL := serveMember(t)
	replicas := []string{serveMember(t, leaderURL), serveMember(t, leaderURL)}

	var buf bytes.Buffer
	args := []string{"-verify", "-gateway", leaderURL,
		"-replicas", strings.Join(replicas, ","),
		"-clients", "4", "-reads", "8", "-records", "24", "-shards", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 read node(s)") || !strings.Contains(out, "caught up") {
		t.Errorf("replica summary missing:\n%s", out)
	}
	if !strings.Contains(out, "verified ops/sec") {
		t.Errorf("verify summary missing:\n%s", out)
	}
}

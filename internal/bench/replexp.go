package bench

import (
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"grub/internal/cluster"
	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/server"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

// RunRepl measures the replication subsystem end to end over loopback HTTP:
//
//  1. Catch-up: a one-voter cluster accumulates a write history, then a
//     cold learner ships the per-shard replication log (anchor-verifying
//     every batch) — reported as log MB/s and batches/sec until its
//     anchors equal the voter's.
//  2. Read scale-out: verified light-client readers (VerifyingClient,
//     every Merkle proof checked) spread across 1, 2 and 4 learners —
//     reported as verified ops/sec per learner count, the horizontal
//     scaling the replication layer exists to buy.
func RunRepl(cfg Config) error {
	cfg = cfg.withDefaults()
	const shards = 2
	const batchOps = 16
	records := cfg.scaled(128, 32)
	batches := cfg.scaled(96, 12)
	readers := cfg.scaled(12, 4)
	readsPer := cfg.scaled(96, 24)

	// Leader: a one-voter cluster whose gateway retains the whole history
	// in its replication log, so catch-up measures log shipping (snapshot
	// bootstrap is covered by the subsystem's tests).
	leaderGW, err := server.NewGatewayWithOptions(server.GatewayOptions{ReplRetain: batches + 16})
	if err != nil {
		return err
	}
	defer leaderGW.Close()
	leaderURL, stopLeader, err := serveMember(leaderGW)
	if err != nil {
		return err
	}
	defer stopLeader()

	const feedID = "repl"
	admin := server.NewClient(leaderURL)
	if err := admin.CreateFeed(server.FeedConfig{ID: feedID, Shards: shards, EpochOps: 8}); err != nil {
		return err
	}
	preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadB, records, 32, cfg.Seed).Preload())
	if _, err := admin.Do(feedID, preload); err != nil {
		return err
	}
	keys := make([]string, len(preload))
	for i, op := range preload {
		keys[i] = op.Key
	}

	// Accumulate the history the cold learner will ship.
	r := sim.NewRand(cfg.Seed + 7)
	wireBytes := 0
	for b := 0; b < batches; b++ {
		ops := make([]core.Op, batchOps)
		for i := range ops {
			ops[i] = core.Op{Type: "write", Key: keys[r.Intn(len(keys))], Value: []byte(fmt.Sprintf("v%08d", r.Intn(1<<24)))}
		}
		wireBytes += (&repl.Entry{Ops: ops}).WireBytes()
		if _, err := admin.Do(feedID, ops); err != nil {
			return err
		}
	}

	fmt.Fprintf(cfg.W, "repl: %d records, %d shards, %d-batch history (%d ops/batch); %d verified readers x %d reads\n\n",
		records, shards, batches+1, batchOps, readers, readsPer)

	type node struct {
		gw   *server.Gateway
		url  string
		stop func()
	}
	var nodes []node
	defer func() {
		for _, n := range nodes {
			n.stop()
			n.gw.Close()
		}
	}()

	// startLearner adds one learner and waits until it serves the voter's
	// exact anchors.
	startLearner := func() error {
		gw := server.NewGateway()
		url, stop, err := serveMember(gw, leaderURL)
		if err != nil {
			gw.Close()
			return err
		}
		nodes = append(nodes, node{gw: gw, url: url, stop: stop})
		return waitCaughtUp(leaderGW, gw, feedID, 60*time.Second)
	}

	// Phase 1: cold catch-up.
	start := time.Now()
	if err := startLearner(); err != nil {
		return err
	}
	catchUp := time.Since(start)
	mbps := float64(wireBytes) / (1 << 20) / catchUp.Seconds()
	batchesPerSec := float64(batches) / catchUp.Seconds()
	fmt.Fprintf(cfg.W, "catch-up: %d batches (%.2f MiB of log) in %v -> %.2f MB/s, %.0f batches/sec\n\n",
		batches, float64(wireBytes)/(1<<20), catchUp.Round(time.Millisecond), mbps, batchesPerSec)
	cfg.metric("repl.catchup.MBps", mbps)
	cfg.metric("repl.catchup.batchesPerSec", batchesPerSec)

	// Phase 2: verified-read throughput at 1, 2 and 4 learners.
	fmt.Fprintf(cfg.W, "%-12s %12s %12s %14s\n", "learners", "verified", "elapsed", "ops/sec")
	var rates []float64
	for _, count := range []int{1, 2, 4} {
		for len(nodes) < count {
			if err := startLearner(); err != nil {
				return err
			}
		}
		urls := make([]string, count)
		for i := 0; i < count; i++ {
			urls[i] = nodes[i].url
		}
		rate, verified, elapsed, err := verifiedReadRun(urls, feedID, keys, readers, readsPer, cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.W, "%-12d %12d %12v %14.0f\n", count, verified, elapsed.Round(time.Millisecond), rate)
		cfg.metric(fmt.Sprintf("repl.verified.opsPerSec.%df", count), rate)
		rates = append(rates, rate)
	}
	if len(rates) == 3 && rates[0] > 0 {
		scale := rates[2] / rates[0]
		fmt.Fprintf(cfg.W, "\nverified reads scale %.2fx from 1 to 4 learners (every proof client-checked)\n", scale)
		cfg.metric("repl.verified.scale4f", scale)
	}
	return nil
}

// verifiedReadRun fans readers across the given node URLs; every reader is
// a VerifyingClient pinned to one node (anchors are per-node state), and
// one in four reads targets a missing key to exercise absence proofs.
func verifiedReadRun(urls []string, feedID string, keys []string, readers, readsPer int, seed uint64) (rate float64, verified int64, elapsed time.Duration, err error) {
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	vcs := make([]*server.VerifyingClient, readers)
	start := time.Now()
	for ri := 0; ri < readers; ri++ {
		vcs[ri] = server.NewVerifyingClient(urls[ri%len(urls)])
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			r := sim.NewRand(seed + uint64(ri+1)*104729)
			vc := vcs[ri]
			for i := 0; i < readsPer; i++ {
				key := keys[r.Intn(len(keys))]
				if i%4 == 3 {
					key = fmt.Sprintf("ghost-%d", r.Intn(1<<16))
				}
				if _, err := vc.Get(feedID, key); err != nil {
					errc <- err
					return
				}
			}
		}(ri)
	}
	wg.Wait()
	close(errc)
	elapsed = time.Since(start)
	for err := range errc {
		return 0, 0, 0, fmt.Errorf("verified read rejected: %w", err)
	}
	for _, vc := range vcs {
		v, _ := vc.VerifiedStats()
		verified += v
	}
	return float64(verified) / elapsed.Seconds(), verified, elapsed, nil
}

// serveMember serves g over loopback HTTP as a cluster member with bench
// cadences: a voter when voters is empty (a one-voter cluster), else a
// learner following them. It returns the member's base URL.
func serveMember(g *server.Gateway, voters ...string) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	url := "http://" + ln.Addr().String()
	node, err := cluster.NewNode(cluster.Options{
		Self: url, Peers: voters, Learner: len(voters) > 0, Local: g.ClusterLocal(),
		Heartbeat: 10 * time.Millisecond, TailPoll: 2 * time.Millisecond,
	})
	if err != nil {
		ln.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: server.NewHandlerConfig(g, server.HandlerConfig{Cluster: node})}
	go srv.Serve(ln)
	node.Start()
	return url, func() { node.Close(); srv.Close() }, nil
}

// waitCaughtUp blocks until replica serves the leader's exact per-shard
// anchors for feed.
func waitCaughtUp(leader, replica *server.Gateway, feed string, timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
		if want, err := roots(leader, feed); err == nil && want != nil {
			if got, err := roots(replica, feed); err == nil && slices.Equal(got, want) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: replica of %q not caught up within %v", feed, timeout)
		}
	}
}

func roots(g *server.Gateway, feed string) ([]query.RootInfo, error) {
	e, err := g.Query(feed)
	if err != nil {
		return nil, err
	}
	return e.Roots()
}

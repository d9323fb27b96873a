package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"grub/internal/cluster"
	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/server"
)

// member is one in-process cluster node, wired the way grubd -join wires
// it: a gateway, a cluster node with the production cadences, and the
// gateway handler served on a loopback listener.
type member struct {
	gw   *server.Gateway
	node *cluster.Node
	srv  *http.Server
	url  string
}

// testCluster is the 2-node cluster one run measures.
type testCluster struct {
	m     [2]*member
	owner []int // per feed: index of the owning member
	serve sync.WaitGroup
}

// startCluster brings up both members. With persistence each node gets a
// data directory under dir, with grubd's defaults (snapshot every 256
// batches, no fsync per append). tr, when non-nil, wraps each handler and
// each node's cluster transport.
func startCluster(s spec, dir string, tr *tracer) (*testCluster, error) {
	c := &testCluster{}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
	}
	for i := range c.m {
		self := "http://" + lns[i].Addr().String()
		peer := "http://" + lns[1-i].Addr().String()
		opts := server.GatewayOptions{}
		statePath := ""
		if s.persist {
			opts = server.GatewayOptions{DataDir: filepath.Join(dir, fmt.Sprintf("node%d", i)), SnapshotEvery: 256}
			statePath = filepath.Join(opts.DataDir, "cluster.json")
		}
		gw, err := server.NewGatewayWithOptions(opts)
		if err == nil {
			copts := cluster.Options{Self: self, Peers: []string{peer}, Local: gw.ClusterLocal(), StatePath: statePath, LoadDigest: gw.Load().Snapshot}
			if tr != nil {
				copts.HTTP = &http.Client{Timeout: 5 * time.Second, Transport: tr.transport(i, http.DefaultTransport)}
			}
			var node *cluster.Node
			if node, err = cluster.NewNode(copts); err == nil {
				var h http.Handler = server.NewHandlerConfig(gw, server.HandlerConfig{MaxBodyBytes: server.DefaultMaxBodyBytes, Cluster: node})
				if tr != nil {
					h = tr.handler(i, h)
				}
				c.m[i] = &member{gw: gw, node: node, srv: &http.Server{Handler: h}, url: self}
			} else {
				gw.Close()
			}
		}
		if err != nil {
			for _, l := range lns {
				l.Close() // no member serves yet
			}
			c.close()
			return nil, err
		}
	}
	for i, m := range c.m {
		c.serve.Add(1)
		go func(m *member, ln net.Listener) {
			defer c.serve.Done()
			m.srv.Serve(ln)
		}(m, lns[i])
		m.node.Start()
	}
	return c, nil
}

// close stops both members the way grubd's drain does: replication and
// heartbeats first, then HTTP, then the feed workers.
func (c *testCluster) close() {
	for _, m := range c.m {
		if m != nil {
			m.node.Close()
		}
	}
	for _, m := range c.m {
		if m != nil {
			m.srv.Close()
		}
	}
	c.serve.Wait()
	for _, m := range c.m {
		if m != nil {
			m.gw.Close()
		}
	}
}

// replica returns the member that does not own feed f.
func (c *testCluster) replica(f int) int { return 1 - c.owner[f] }

// resolve maps a generator target to a member index.
func (c *testCluster) resolve(t target, f int) int {
	switch t {
	case toOwner:
		return c.owner[f]
	case toReplica:
		return c.replica(f)
	case toNode0:
		return 0
	}
	return 1
}

// roots reads a feed's per-shard anchors on member i through its public
// query engine (what GET /feeds/{id}/roots serves).
func (c *testCluster) roots(i int, id string) ([]query.RootInfo, error) {
	e, err := c.m[i].gw.Query(id)
	if err != nil {
		return nil, err
	}
	return e.Roots()
}

// createFeeds creates every feed through member 0 (which forwards each
// create to its ring owner) and waits until both members agree on its
// owner and host it.
func (c *testCluster) createFeeds(feeds []server.FeedConfig, timeout time.Duration) error {
	admin := server.NewClient(c.m[0].url)
	admin.Retry = server.DefaultRetry
	for _, cfg := range feeds {
		if err := admin.CreateFeed(cfg); err != nil {
			return fmt.Errorf("create feed %s: %w", cfg.ID, err)
		}
	}
	c.owner = make([]int, len(feeds))
	return waitFor(timeout, "placement", func() bool {
		for f, cfg := range feeds {
			e0, ok0 := c.m[0].node.Placement(cfg.ID)
			e1, ok1 := c.m[1].node.Placement(cfg.ID)
			if !ok0 || !ok1 || e0.Owner == "" || e0.Owner != e1.Owner {
				return false
			}
			c.owner[f] = 0
			if e0.Owner == c.m[1].url {
				c.owner[f] = 1
			}
			for i := range c.m {
				if _, err := c.roots(i, cfg.ID); err != nil {
					return false
				}
			}
		}
		return true
	})
}

// converged reports whether every replica's per-shard anchors equal its
// owner's.
func (c *testCluster) converged(feeds []server.FeedConfig) (bool, error) {
	for f, cfg := range feeds {
		ro, err := c.roots(c.owner[f], cfg.ID)
		if err != nil {
			return false, err
		}
		rr, err := c.roots(c.replica(f), cfg.ID)
		if err != nil {
			return false, err
		}
		if len(ro) != len(rr) {
			return false, nil
		}
		for s := range ro {
			if ro[s].Seq != rr[s].Seq || ro[s].Root != rr[s].Root || ro[s].Count != rr[s].Count {
				return false, nil
			}
		}
	}
	return true, nil
}

func (c *testCluster) waitConverged(feeds []server.FeedConfig, timeout time.Duration) error {
	var lastErr error
	err := waitFor(timeout, "replica convergence", func() bool {
		ok, err := c.converged(feeds)
		lastErr = err
		return ok
	})
	if err != nil && lastErr != nil {
		return fmt.Errorf("%w: %v", err, lastErr)
	}
	return err
}

// preload sends each feed's preload batches to its owner, one lane per
// feed parity, as the load lanes do.
func (c *testCluster) preload(feeds []server.FeedConfig, batches [][][]core.Op) error {
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var cl [2]*server.Client
			for i := range cl {
				cl[i] = server.NewClient(c.m[i].url)
				cl[i].HTTP = &http.Client{Transport: &http.Transport{}}
				cl[i].Retry = server.DefaultRetry
			}
			for f := l; f < len(feeds); f += lanes {
				for _, b := range batches[f] {
					if _, err := cl[c.owner[f]].Do(feeds[f].ID, b); err != nil {
						errs[l] = fmt.Errorf("preload %s: %w", feeds[f].ID, err)
						return
					}
				}
			}
			for _, x := range cl {
				x.HTTP.CloseIdleConnections()
			}
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

var errTimeout = errors.New("timed out")

// waitFor polls cond every 5ms until it holds or timeout elapses.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %w after %v", what, errTimeout, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// runDir makes the run's scratch directory inside the checkout.
func runDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

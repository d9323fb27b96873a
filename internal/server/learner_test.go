package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"grub/internal/cluster"
)

// waitQuorum polls until node's quorum view equals want.
func waitQuorum(t *testing.T, tn *testClusterNode, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tn.node.Status().Quorum != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s quorum never became %v", tn.url, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLearnerNeverVotesOrOwns: a learner beside three voters takes no part
// in ownership. New feeds never place on it, Move to it is refused as an
// unknown member, a dead owner's feed is promoted to a voter, and its
// heartbeats never make up a voter's missing quorum.
func TestLearnerNeverVotesOrOwns(t *testing.T) {
	nodes := startTestClusterCfg(t, 3, 1, nil)
	learner := nodes[3]
	waitQuorum(t, learner, true)

	// Create through the learner: it places every feed on a voter.
	c := NewClient(learner.url)
	c.Retry = DefaultRetry
	const feeds = 6
	for i := 0; i < feeds; i++ {
		id := fmt.Sprintf("l%d", i)
		if err := c.CreateFeed(FeedConfig{ID: id, EpochOps: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Do(id, []Op{{Type: "write", Key: "k", Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		if oi := ownerIndex(t, nodes, id, 10*time.Second); oi == 3 {
			t.Fatalf("feed %s placed on the learner", id)
		}
	}

	oi := ownerIndex(t, nodes, "l0", 10*time.Second)
	if _, err := nodes[oi].node.Move("l0", learner.url); !errors.Is(err, cluster.ErrUnknownMember) {
		t.Fatalf("Move to learner = %v, want ErrUnknownMember", err)
	}

	// Kill l0's owner once every replica is caught up: a voter is promoted,
	// never the learner.
	waitAnchorsEqual(t, nodes, "l0", 10*time.Second)
	nodes[oi].kill()
	if ni := ownerIndex(t, nodes, "l0", 10*time.Second); ni == 3 {
		t.Fatal("learner promoted to owner")
	}
	st := learner.node.Status()
	if !st.Learner || st.FailoversTotal != 0 {
		t.Errorf("learner status = %+v", st)
	}
	for _, fp := range st.Feeds {
		if fp.Owner == learner.url || fp.Role != "follower" {
			t.Errorf("learner holds %+v", fp)
		}
	}

	// Kill a second voter: the survivor sees 1 of 3 voters and fences
	// itself, although the learner still heartbeats it every tick.
	var survivor *testClusterNode
	for _, tn := range nodes[:3] {
		if tn.alive() {
			if survivor == nil {
				survivor = tn
			} else {
				tn.kill()
			}
		}
	}
	waitQuorum(t, survivor, false)
	waitQuorum(t, learner, false)
	time.Sleep(50 * time.Millisecond) // several learner heartbeats land
	if survivor.node.Status().Quorum {
		t.Fatal("learner heartbeats restored a voter's quorum")
	}
}

// TestLearnerIdleTailsListNoFeeds: once converged, the tails of an idle
// multi-feed cluster — voters' and learner's alike — fetch only their
// shards' logs and never list the feed set again.
func TestLearnerIdleTailsListNoFeeds(t *testing.T) {
	nodes := startTestClusterCfg(t, 2, 1, nil)
	waitQuorum(t, nodes[2], true)
	c := NewClient(nodes[0].url)
	c.Retry = DefaultRetry
	const feeds = 8
	for i := 0; i < feeds; i++ {
		id := fmt.Sprintf("idle%d", i)
		if err := c.CreateFeed(FeedConfig{ID: id, EpochOps: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Do(id, []Op{{Type: "write", Key: "k", Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < feeds; i++ {
		waitAnchorsEqual(t, nodes, fmt.Sprintf("idle%d", i), 10*time.Second)
	}
	// Every node tails each feed it does not own: two of three nodes.
	deadline := time.Now().Add(10 * time.Second)
	for tailing := 0; tailing != 2*feeds; {
		tailing = 0
		for _, tn := range nodes {
			for _, fp := range tn.node.Status().Feeds {
				if fp.Tail != nil && fp.Tail.State == "tailing" {
					tailing++
				}
			}
		}
		if tailing != 2*feeds && time.Now().After(deadline) {
			t.Fatalf("%d of %d tails converged", tailing, 2*feeds)
		}
		time.Sleep(2 * time.Millisecond)
	}

	lists := func() (n int64) {
		for _, tn := range nodes {
			n += tn.lists.Load()
		}
		return n
	}
	before := lists()
	if before < 2*feeds {
		t.Fatalf("only %d feed lists for %d tails: the counter misses arming", before, 2*feeds)
	}
	time.Sleep(400 * time.Millisecond) // ~25 heartbeats, ~100 idle log polls per tail
	if after := lists(); after != before {
		t.Errorf("idle converged tails listed feeds %d times", after-before)
	}
}

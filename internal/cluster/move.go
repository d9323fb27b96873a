package cluster

import (
	"fmt"
	"slices"
	"time"
)

// MoveResult reports a completed live migration.
type MoveResult struct {
	Feed  string `json:"feed"`
	From  string `json:"from"`
	To    string `json:"to"`
	Epoch uint64 `json:"epoch"` // epoch of the new ownership entry
}

// Move live-migrates a feed this node owns to target:
//
//  1. Wait for the target to host a replica (its tail bootstraps from a
//     verified snapshot and tails our replication log like any replica).
//     Only voters are targets: a learner never owns a feed.
//  2. Fence: bump the feed's epoch with Fenced set — new writes get 503 +
//     Retry-After, in-flight applies drain.
//  3. Converge: wait until the target's per-shard anchors equal our own,
//     stable, post-fence anchors exactly (seq AND root — a root mismatch at
//     equal seq aborts rather than migrating onto a fork).
//  4. Flip: bump the epoch again with target as owner, and push the entry
//     to the target synchronously so it starts accepting writes
//     immediately; everyone else learns via heartbeat and re-forwards.
//
// On timeout the fence is rolled back (ownership re-asserted un-fenced at a
// higher epoch) and an error returned; no ownership change happens.
func (n *Node) Move(feed, target string) (MoveResult, error) {
	if target == n.opts.Self {
		e, _ := n.pm.Get(feed)
		return MoveResult{Feed: feed, From: n.opts.Self, To: target, Epoch: e.Epoch}, nil
	}
	if !slices.Contains(n.voters, target) {
		return MoveResult{}, fmt.Errorf("%w: %s", ErrUnknownMember, target)
	}
	if !n.alive(target) {
		return MoveResult{}, fmt.Errorf("cluster: target %s is not alive", target)
	}
	e, ok := n.pm.Get(feed)
	if !ok || e.Deleted || e.Owner != n.opts.Self {
		return MoveResult{}, fmt.Errorf("%w: %s owns %q", ErrNotOwner, e.Owner, feed)
	}
	if e.Fenced {
		return MoveResult{}, ErrBusy
	}
	deadline := time.Now().Add(n.opts.MoveTimeout)
	// Step 1: target must host a replica before we fence anything.
	for {
		if _, err := n.client.Anchors(target, feed); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return MoveResult{}, fmt.Errorf("cluster: move %q: target %s never started replicating", feed, target)
		}
		time.Sleep(n.opts.TailPoll)
	}
	// Step 2: fence.
	fence := Entry{Feed: feed, Owner: n.opts.Self, Epoch: e.Epoch + 1, Fenced: true}
	if !n.pm.Merge(fence) {
		return MoveResult{}, ErrBusy // a newer decision beat us to it
	}
	unfence := func() {
		n.pm.Merge(Entry{Feed: feed, Owner: n.opts.Self, Epoch: fence.Epoch + 1})
	}
	// Step 3: converge. Local anchors are re-read until stable so in-flight
	// writes admitted before the fence are fully drained and replicated.
	for {
		la, err := n.local.Anchors(feed)
		if err != nil {
			unfence()
			return MoveResult{}, fmt.Errorf("cluster: move %q: local anchors: %w", feed, err)
		}
		ra, err := n.client.Anchors(target, feed)
		if err == nil && len(ra) == len(la) {
			matched, diverged := true, false
			for i := range la {
				if ra[i].Seq != la[i].Seq {
					matched = false
				} else if ra[i].Root != la[i].Root {
					diverged = true
				}
			}
			if diverged {
				unfence()
				return MoveResult{}, fmt.Errorf("cluster: move %q to %s: %w", feed, target, ErrDiverged)
			}
			if matched {
				la2, err := n.local.Anchors(feed)
				if err == nil && anchorsEqual(la, la2) {
					break // target caught up to a stable fence point
				}
			}
		}
		if time.Now().After(deadline) {
			unfence()
			return MoveResult{}, fmt.Errorf("cluster: move %q: target %s did not converge within %s", feed, target, n.opts.MoveTimeout)
		}
		time.Sleep(n.opts.TailPoll)
	}
	// Step 4: flip.
	flip := Entry{Feed: feed, Owner: target, Epoch: fence.Epoch + 1}
	n.pm.Merge(flip)
	n.pushEntries(target, []Entry{flip})
	for _, p := range n.peers() {
		if p != target && n.alive(p) {
			go n.pushEntries(p, []Entry{flip})
		}
	}
	// Our own reconcile loop notices we no longer own the feed and starts
	// tailing the new owner on the next tick.
	return MoveResult{Feed: feed, From: n.opts.Self, To: target, Epoch: flip.Epoch}, nil
}

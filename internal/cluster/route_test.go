package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
)

// stubLocal satisfies Local for routing tests that never touch an engine.
type stubLocal struct{}

func (stubLocal) EnsureFeed(string, json.RawMessage) error { return nil }
func (stubLocal) Feed(string) (repl.Feed, error)           { return nil, errors.New("stub") }
func (stubLocal) Feeds() []string                          { return nil }
func (stubLocal) Anchors(string) ([]query.RootInfo, error) { return nil, errors.New("stub") }
func (stubLocal) CloseFeed(string) error                   { return nil }
func (stubLocal) Pipeline() *obs.Pipeline                  { return nil }

func routeTestNode(t *testing.T, self string, peers ...string) *Node {
	t.Helper()
	n, err := NewNode(Options{Self: self, Peers: peers, Local: stubLocal{}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRouteWrite(t *testing.T) {
	n := routeTestNode(t, "http://a", "http://b", "http://c")
	// Quorum needs 2 of 3: pretend b answered a heartbeat just now.
	n.markAlive("http://b")

	// Unknown feed: routed to its ring owner, where PlaceFeed would have
	// created it — a write racing the create's placement heartbeat must
	// not 404 on a non-owner. Already forwarded (or ours by the ring), it
	// goes local, where the gateway 404s feeds it does not host.
	var mineByRing, theirsByRing string
	for i := 0; mineByRing == "" || theirsByRing == ""; i++ {
		id := fmt.Sprintf("new%d", i)
		if n.ring.Owner(id, n.alive) == "http://a" {
			mineByRing = id
		} else if n.ring.Owner(id, n.alive) == "http://b" {
			theirsByRing = id
		}
	}
	if rt := n.RouteWrite(theirsByRing, 0, false); rt.Kind != RouteForward || rt.Owner != "http://b" {
		t.Fatalf("unknown feed owned by a peer's ring point: %+v", rt)
	}
	if rt := n.RouteWrite(theirsByRing, 0, true); rt.Kind != RouteLocal {
		t.Fatalf("forwarded unknown feed: %+v", rt)
	}
	if rt := n.RouteWrite(mineByRing, 0, false); rt.Kind != RouteLocal {
		t.Fatalf("unknown feed owned by our ring point: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "mine", Owner: "http://a", Epoch: 2})
	if rt := n.RouteWrite("mine", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("owned feed: %+v", rt)
	}
	// A forwarded request carrying a NEWER epoch than we know proves our
	// map is stale: refuse rather than apply under a superseded view.
	if rt := n.RouteWrite("mine", 3, true); rt.Kind != RouteUnavailable {
		t.Fatalf("stale-map write: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "theirs", Owner: "http://b", Epoch: 1})
	if rt := n.RouteWrite("theirs", 0, false); rt.Kind != RouteForward || rt.Owner != "http://b" || rt.Epoch != 1 {
		t.Fatalf("unowned feed: %+v", rt)
	}
	// Already forwarded once: 421 + Leader, never a proxy chain.
	if rt := n.RouteWrite("theirs", 1, true); rt.Kind != RouteMisdirected || rt.Owner != "http://b" {
		t.Fatalf("forwarded to non-owner: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "mine", Owner: "http://a", Epoch: 3, Fenced: true})
	if rt := n.RouteWrite("mine", 0, false); rt.Kind != RouteFenced {
		t.Fatalf("fenced feed: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "gone", Owner: "http://a", Epoch: 4, Deleted: true})
	if rt := n.RouteWrite("gone", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("tombstoned feed: %+v", rt)
	}
}

// TestRouteWriteSelfFencing: a node that cannot see a member majority must
// refuse writes to feeds it owns — a deposed owner on the wrong side of a
// partition would otherwise fork history.
func TestRouteWriteSelfFencing(t *testing.T) {
	n := routeTestNode(t, "http://a", "http://b", "http://c")
	n.pm.Merge(Entry{Feed: "f", Owner: "http://a", Epoch: 1})
	// Nobody heard from: only self alive, 1 of 3 is not a majority.
	if rt := n.RouteWrite("f", 0, false); rt.Kind != RouteUnavailable {
		t.Fatalf("quorumless owner accepted write: %+v", rt)
	}
	n.markAlive("http://b")
	if rt := n.RouteWrite("f", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("quorate owner refused write: %+v", rt)
	}
	// Single-node "cluster": quorum is trivially satisfied.
	solo := routeTestNode(t, "http://solo")
	solo.pm.Merge(Entry{Feed: "f", Owner: "http://solo", Epoch: 1})
	if rt := solo.RouteWrite("f", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("solo node refused write: %+v", rt)
	}
}

func TestAliveExpiry(t *testing.T) {
	n, err := NewNode(Options{
		Self: "http://a", Peers: []string{"http://b"}, Local: stubLocal{},
		Heartbeat: 10 * time.Millisecond, FailAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.alive("http://b") {
		t.Fatal("never-seen peer reported alive")
	}
	n.markAlive("http://b")
	if !n.alive("http://b") {
		t.Fatal("fresh peer reported dead")
	}
	time.Sleep(50 * time.Millisecond)
	if n.alive("http://b") {
		t.Fatal("stale peer still alive after FailAfter")
	}
	if !n.alive("http://a") {
		t.Fatal("self must always be alive")
	}
}

func TestPlaceAndClaimFeed(t *testing.T) {
	n := routeTestNode(t, "http://a", "http://b")
	n.markAlive("http://b")
	owner := n.PlaceFeed("some-feed")
	if owner == "" {
		t.Fatal("no placement with everyone alive")
	}
	n.ClaimFeed("some-feed")
	e, ok := n.pm.Get("some-feed")
	if !ok || e.Owner != "http://a" || e.Epoch != 1 {
		t.Fatalf("claimed entry = %+v ok=%v", e, ok)
	}
	// Existing placement wins over the ring for re-creates.
	if got := n.PlaceFeed("some-feed"); got != "http://a" {
		t.Fatalf("PlaceFeed after claim = %q", got)
	}
	// Tombstone, then re-claim at a higher epoch.
	n.ReleaseFeed("some-feed")
	if e, _ := n.pm.Get("some-feed"); !e.Deleted || e.Epoch != 2 {
		t.Fatalf("tombstone = %+v", e)
	}
	n.ClaimFeed("some-feed")
	if e, _ := n.pm.Get("some-feed"); e.Deleted || e.Epoch != 3 || e.Owner != "http://a" {
		t.Fatalf("re-claimed entry = %+v", e)
	}
}

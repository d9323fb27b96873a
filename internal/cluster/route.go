package cluster

// RouteKind classifies what the HTTP layer should do with a write (or other
// owner-only request) for a feed.
type RouteKind int

const (
	// RouteLocal: this node owns the feed and may apply the write.
	RouteLocal RouteKind = iota
	// RouteForward: proxy the request to Route.Owner, stamping the epoch
	// and forwarded headers.
	RouteForward
	// RouteFenced: the feed is mid-migration; reply 503 + Retry-After.
	RouteFenced
	// RouteUnavailable: this node cannot safely decide (no quorum, or the
	// request proves its map is stale); reply 503 + Retry-After.
	RouteUnavailable
	// RouteMisdirected: the request was already forwarded once and this
	// node still is not the owner — reply 421 + Leader header instead of
	// proxying again, so routing disagreements never become proxy loops.
	RouteMisdirected
)

// Route is a routing decision for one request.
type Route struct {
	Kind   RouteKind
	Owner  string // owner URL for Forward/Misdirected (Leader header)
	Epoch  uint64 // this node's placement epoch for the feed
	Reason string // human-readable reason for Fenced/Unavailable
}

// RouteWrite decides how to handle a write-path request for a feed.
// reqEpoch is the epoch stamped on a forwarded request (0 for client
// originals); forwarded reports whether the request already took a proxy
// hop. Reads never call this — every node serves verified reads from its
// local replica.
func (n *Node) RouteWrite(feed string, reqEpoch uint64, forwarded bool) Route {
	e, ok := n.pm.Get(feed)
	if !ok && !forwarded {
		// Unknown to our map: the feed may have just been created on its
		// ring owner, which claimed it before our next heartbeat. Send the
		// write where PlaceFeed put it; that node answers (and 404s a feed
		// nobody hosts).
		owner := n.ring.Owner(feed, n.alive)
		if owner == "" {
			return Route{Kind: RouteUnavailable, Reason: "no alive voter to route an unplaced feed to"}
		}
		if owner != n.opts.Self {
			return Route{Kind: RouteForward, Owner: owner}
		}
	}
	if !ok || e.Deleted {
		// Tombstoned, forwarded to us unplaced, or ours by the ring: let
		// the local gateway answer — it 404s feeds it does not host.
		return Route{Kind: RouteLocal, Epoch: e.Epoch}
	}
	if reqEpoch > e.Epoch {
		// The sender has a newer placement decision than we do; refusing
		// (rather than applying under a superseded view) keeps the fencing
		// epoch invariant. Our map catches up on the next heartbeat.
		return Route{Kind: RouteUnavailable, Epoch: e.Epoch,
			Reason: "stale placement map: request epoch ahead of local"}
	}
	if e.Owner != n.opts.Self {
		if forwarded {
			return Route{Kind: RouteMisdirected, Owner: e.Owner, Epoch: e.Epoch}
		}
		return Route{Kind: RouteForward, Owner: e.Owner, Epoch: e.Epoch}
	}
	if e.Fenced {
		return Route{Kind: RouteFenced, Owner: e.Owner, Epoch: e.Epoch,
			Reason: "feed migration cutover in progress"}
	}
	if !n.hasQuorum() {
		// Self-fencing: without sight of a member majority this node might
		// be a deposed owner on the wrong side of a partition. Refusing
		// writes here is what prevents split-brain.
		return Route{Kind: RouteUnavailable, Owner: e.Owner, Epoch: e.Epoch,
			Reason: "no heartbeat quorum: refusing writes to prevent split-brain"}
	}
	return Route{Kind: RouteLocal, Owner: e.Owner, Epoch: e.Epoch}
}

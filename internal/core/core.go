// Package core assembles a complete GRuB deployment on a simulated chain:
// the storage-manager contract (contract.go), the trusted data owner with
// its workload monitor, decision policy and epoch-batched write path
// (do.go), and the storage-provider watchdog answering request events with
// authenticated delivers (spnode.go). Feed ties the three parties together
// and drives workload traces through them; it is the object every
// experiment, shard worker and gateway manipulates.
//
// The package also hosts two cross-layer vocabularies:
//
//   - the batch-op layer (ops.go): Op/OpResult/ApplyOps, the wire-level
//     operation format shared by the gateway, the shard engine, the load
//     drivers and sequential replays, and
//   - the snapshot layer (snapshot.go): Feed.Snapshot encodes a feed's
//     complete state at a quiescent point in one binary format,
//     DecodeFeedSnapshot parses it into a FeedSnapshot and RestoreFeed
//     rebuilds a behaviorally identical feed from that, which is what makes
//     the gateway's durability path (internal/shard persistence) and the
//     replication bootstrap exact rather than approximate.
//
// Everything in core is single-writer by design: a Feed must be driven from
// one goroutine (the simulation is deterministic, which is what makes both
// the Gas accounting and crash recovery exactly reproducible).
package core

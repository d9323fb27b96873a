package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"grub/internal/core"
	"grub/internal/server"
	"grub/internal/sim"
	"grub/internal/workload"
	"grub/internal/workload/ycsb"
)

// reqKind is what one scheduled request does.
type reqKind uint8

const (
	kindBatch reqKind = iota // POST /feeds/{id}/ops through server.Client
	kindGet                  // verified point read through server.VerifyingClient
)

// target says which cluster member a request enters at. Placement is only
// known once the cluster is up (it hashes the members' URLs), so the
// generator names a role and the load lanes resolve it.
type target uint8

const (
	toOwner target = iota
	toReplica
	toNode0
	toNode1
)

// request is one scheduled operation of a lane.
type request struct {
	Kind reqKind   `json:"kind"`
	Feed int       `json:"feed"`
	To   target    `json:"to"`
	Ops  []core.Op `json:"ops,omitempty"`
	Key  string    `json:"key,omitempty"`
	// Due is the request's send time as an offset from its phase start.
	Due time.Duration `json:"due"`
}

// ops is the number of operations the request counts as: one per batch op,
// one per verified read.
func (r *request) ops() int {
	if r.Kind == kindBatch {
		return len(r.Ops)
	}
	return 1
}

// phase is one open-loop stretch: per lane, requests sorted by due time.
type phase struct {
	Lanes [][]request `json:"lanes"`
}

// stream is everything one run sends, generated up front from the seed.
// The program under test sees only these ops.
type stream struct {
	Feeds   []server.FeedConfig `json:"feeds"`
	Preload [][][]core.Op       `json:"preload"` // per feed, batches
	Warmup  phase               `json:"warmup"`
	Windows []phase             `json:"windows"`
	// versions maps valueHash(feed, key, value) to the write's position
	// in generation order; verified reads are checked against it. It holds
	// no pointers, so the garbage collector never scans it.
	versions map[uint64]int64
}

// valueHash is FNV-1a over (feed, key, value).
func valueHash(feed int, key string, value []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(feed))
	h.Write(b[:])
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(value)
	return h.Sum64()
}

// spec is one workload: its data layout and its offered load.
type spec struct {
	name    string
	feeds   int
	shards  int
	records int // preloaded per feed
	persist bool
	batchHz float64 // write batches per second, all lanes
	readHz  float64 // verified reads per second, all lanes
	// scrapeHz is the rate of /metrics scrapes per node during the window
	// (0: none), part of the workload's load.
	scrapeHz float64
}

// The offered rates are fixed, at a quarter to a third of what a 2-core
// host sustains for each workload with this cluster; see README.md.
var specs = []spec{
	{
		name: "ingest", feeds: 1, shards: 4, records: 100_000, persist: true,
		batchHz: 40, readHz: 50,
	},
	{
		name: "verified-read", feeds: 1, shards: 4, records: 4096, persist: true,
		batchHz: 40, readHz: 1000,
	},
	{
		name: "fleet", feeds: 128, shards: 1, records: 64, persist: false,
		batchHz: 30, readHz: 30, scrapeHz: 0.2,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	batchOps     = 16   // YCSB ops per write batch
	preloadBatch = 2048 // ops per preload batch
	valueBytes   = 32
	warmupSecs   = 1.0
	lanes        = 2
)

// feedID names the i-th feed of a workload.
func (s spec) feedID(i int) string {
	if s.feeds == 1 {
		return s.name
	}
	return fmt.Sprintf("t%03d", i)
}

func (s spec) feedConfig(i int) server.FeedConfig {
	return server.FeedConfig{ID: s.feedID(i), Policy: "memoryless", K: 2, Shards: s.shards, EpochOps: 8}
}

// generate builds the run's whole op stream from seed: the preload, a
// warm-up phase and windows measured phases of seconds each.
func generate(s spec, seed uint64, seconds float64, windows int) *stream {
	g := &stream{versions: make(map[uint64]int64)}
	for i := 0; i < s.feeds; i++ {
		g.Feeds = append(g.Feeds, s.feedConfig(i))
	}
	src := newSource(s, seed, g)
	g.Preload = src.preload()
	g.Warmup = src.phase(warmupSecs)
	for w := 0; w < windows; w++ {
		g.Windows = append(g.Windows, src.phase(seconds))
	}
	return g
}

// source holds the seeded generators one workload draws from. Each feed
// has its own key chooser and value stream, so a feed's op stream depends
// only on the seed and the feed, not on how requests interleave.
type source struct {
	s       spec
	g       *stream
	sched   *sim.Rand // feed, node and lane choices
	drivers []*ycsb.Driver
	oracle  []workload.Op // verified-read: the write events, in order
	reads   ycsb.Generator
	vals    *sim.Rand
}

func newSource(s spec, seed uint64, g *stream) *source {
	src := &source{s: s, g: g, sched: sim.NewRand(seed ^ 0x5eed), vals: sim.NewRand(seed ^ 0xa11)}
	for i := 0; i < s.feeds; i++ {
		src.drivers = append(src.drivers, ycsb.NewDriver(ycsb.WorkloadA, s.records, valueBytes, seed+uint64(i)*7919))
	}
	readRand := sim.NewRand(seed ^ 0x7ead)
	if s.name == "verified-read" {
		// Unscrambled zipfian: asset-0000, the price every update event
		// rewrites, is the hottest key, so reads race the writes.
		src.reads = ycsb.NewZipfian(s.records, readRand)
	} else {
		src.reads = ycsb.NewScrambledZipfian(s.records, readRand)
	}
	return src
}

// key names record i of the workload's store.
func (src *source) key(i int) string {
	if src.s.name == "verified-read" {
		return workload.AssetKey(i)
	}
	return ycsb.Key(i)
}

// record notes a written value so verified reads can be checked.
func (src *source) record(feed int, op core.Op) {
	h := valueHash(feed, op.Key, op.Value)
	if _, dup := src.g.versions[h]; !dup {
		src.g.versions[h] = int64(len(src.g.versions))
	}
}

func (src *source) preload() [][][]core.Op {
	out := make([][][]core.Op, src.s.feeds)
	for f := 0; f < src.s.feeds; f++ {
		var ops []core.Op
		if src.s.name == "verified-read" {
			for i := 0; i < src.s.records; i++ {
				v := make([]byte, valueBytes)
				for j := range v {
					v[j] = byte(src.vals.Uint64())
				}
				ops = append(ops, core.Op{Type: "write", Key: src.key(i), Value: v})
			}
		} else {
			ops = core.FromWorkload(src.drivers[f].Preload())
		}
		for _, op := range ops {
			src.record(f, op)
		}
		for len(ops) > 0 {
			n := min(preloadBatch, len(ops))
			out[f] = append(out[f], ops[:n])
			ops = ops[n:]
		}
	}
	return out
}

// nextBatch draws the next write batch for a feed.
func (src *source) nextBatch(feed int) []core.Op {
	if src.s.name == "verified-read" {
		return src.nextOracleEvent()
	}
	ops := core.FromWorkload(src.drivers[feed].Generate(batchOps))
	for _, op := range ops {
		if op.Type == "write" {
			src.record(feed, op)
		}
	}
	return ops
}

// nextOracleEvent returns one ethPriceOracle event: the 10-asset price
// update plus its Table 1 burst of on-chain reads.
func (src *source) nextOracleEvent() []core.Op {
	const assets = 10
	if len(src.oracle) == 0 {
		src.oracle = workload.EthPriceOracleMultiAsset(src.s.records, assets, workload.EthPriceWrites, valueBytes, src.vals.Uint64())
	}
	end := assets
	for end < len(src.oracle) && !src.oracle[end].Write {
		end++
	}
	ops := core.FromWorkload(src.oracle[:end])
	src.oracle = src.oracle[end:]
	for _, op := range ops {
		if op.Type == "write" {
			src.record(0, op)
		}
	}
	return ops
}

// phase schedules seconds of open-loop load. Write batches and reads each
// arrive at their offered rate and are merged per lane by due time. Lanes
// split the feeds (feed i is driven by lane i mod 2 only), except that on a
// single-feed workload lane 0 writes and lane 1 reads.
func (src *source) phase(seconds float64) phase {
	p := phase{Lanes: make([][]request, lanes)}
	s := src.s
	for _, due := range src.arrivals(s.batchHz, seconds) {
		feed, to, lane := 0, toOwner, 0
		if s.feeds > 1 {
			feed = src.sched.Intn(s.feeds)
			lane = feed % lanes
			// The batch enters at a uniformly chosen member, so about
			// half are forwarded by the non-owner.
			if src.sched.Intn(2) == 0 {
				to = toReplica
			}
		}
		p.Lanes[lane] = append(p.Lanes[lane], request{Kind: kindBatch, Feed: feed, To: to, Ops: src.nextBatch(feed), Due: due})
	}
	for _, due := range src.arrivals(s.readHz, seconds) {
		feed, to, lane := 0, toReplica, 1
		if s.feeds > 1 {
			feed = src.sched.Intn(s.feeds)
			to, lane = toNode0+target(src.sched.Intn(2)), feed%lanes
		}
		p.Lanes[lane] = append(p.Lanes[lane], request{Kind: kindGet, Feed: feed, To: to, Key: src.key(src.reads.Next()), Due: due})
	}
	for _, l := range p.Lanes {
		sort.SliceStable(l, func(i, j int) bool { return l[i].Due < l[j].Due })
	}
	return p
}

// arrivals draws Poisson arrival times at rate per second over seconds:
// independent users, and no fixed spacing for a polling loop in the
// program to phase-lock with.
func (src *source) arrivals(rate, seconds float64) []time.Duration {
	var out []time.Duration
	for t := 0.0; rate > 0; {
		t += -math.Log(1-src.sched.Float64()) / rate
		if t >= seconds {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

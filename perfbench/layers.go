package main

import (
	"strings"
	"time"
)

// stages are the grub_stage_seconds stages reported per layer.
var stages = []string{
	"apply", "mailbox", "publish", "repl_append", "persist", "proof_build",
	"forward", "remote_apply", "follower_fetch", "follower_verify", "follower_apply",
}

// layerMetrics derives the per-layer metrics of a traced run: counts from
// the two members' /metrics deltas over the traced window, times from the
// window's spans, runtime figures from MemStats, and the trace overhead
// from the untraced window that preceded it. win is the traced window in
// span time.
func layerMetrics(m map[string]metric, plain, traced *window, before, after [2]expo, spans []span, win [2]int64, proofBytes int64) {
	secs := traced.elapsed.Seconds()
	ops := float64(traced.done)
	reads := float64(len(traced.latencies(kindGet)))

	for _, st := range stages {
		sum := expoDelta(before, after, "grub_stage_seconds_sum", "stage", st)
		n := expoDelta(before, after, "grub_stage_seconds_count", "stage", st)
		m["stage."+st+".ms_per_batch"] = metric{ratio(sum*1e3, n), "ms"}
	}

	// core: replication state of the record set and on-chain read work.
	records, replicated := 0.0, 0.0
	for i := range after {
		records += after[i].sum("grub_feed_records")
		replicated += after[i].sum("grub_feed_replicated")
	}
	m["core.replicated_frac"] = metric{ratio(replicated, records), "ratio"}
	// Both members apply every batch, so each counts every delivery.
	delivered := expoDelta(before, after, "grub_feed_delivered_total") / float64(len(before))
	m["core.delivered_per_read"] = metric{ratio(delivered, float64(traced.chainReads)), "ratio"}

	// shard and kvstore: persistence counters.
	m["shard.snapshots_per_s"] = metric{expoDelta(before, after, "grub_feed_persist_snapshots_total") / secs, "1/s"}
	hits := expoDelta(before, after, "grub_kv_cache_hits_total")
	misses := expoDelta(before, after, "grub_kv_cache_misses_total")
	m["kvstore.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["kvstore.compaction_bytes_per_op"] = metric{ratio(expoDelta(before, after, "grub_kv_compaction_bytes_total"), ops), "B"}

	// query: evidence carried per verified read.
	m["query.proof_bytes_per_read"] = metric{ratio(float64(proofBytes), reads), "B"}

	// server, cluster and repl: from the spans.
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	durs := map[string][]float64{}
	bytes := map[string]float64{}
	count := map[string]float64{}
	var transport, attempts []float64
	useful := 0.0
	for i := range spans {
		sp := &spans[i]
		durs[sp.Name] = append(durs[sp.Name], msOf(sp.dur()))
		// Rates and byte totals count only spans that started inside
		// the window; the checks and scrapes after it are traced too.
		if sp.Start >= win[0] && sp.Start < win[1] {
			bytes[sp.Name] += float64(sp.Bytes)
			count[sp.Name]++
			if sp.Useful {
				useful++
			}
		}
		if strings.HasPrefix(sp.Name, "client.") {
			attempts = append(attempts, float64(sp.Attempts))
		}
		// A handler span entered straight from a load client: the
		// client's time outside it is transport (encode, loopback,
		// decode).
		if p := byID[sp.Parent]; p != nil && strings.HasPrefix(p.Name, "client.") && strings.HasPrefix(sp.Name, "server.") {
			transport = append(transport, msOf(p.dur())-msOf(sp.dur()))
		}
	}
	for _, r := range []string{"ops", "get", "roots", "metrics"} {
		m["server."+r+".handler_ms"] = metric{quantile(durs["server."+r], 0.5), "ms"}
	}
	m["client.transport_ms"] = metric{quantile(transport, 0.5), "ms"}
	m["client.attempts_per_call"] = metric{mean(attempts), "count"}
	m["cluster.forward.rtt_ms"] = metric{quantile(durs["cluster.forward"], 0.5), "ms"}
	m["cluster.forward.bytes_per_batch"] = metric{ratio(bytes["cluster.forward"], count["cluster.forward"]), "B"}
	m["cluster.heartbeat.per_s"] = metric{count["cluster.heartbeat"] / secs, "1/s"}
	m["cluster.heartbeat.bytes"] = metric{ratio(bytes["cluster.heartbeat"], count["cluster.heartbeat"]), "B"}
	m["repl.log.fetch_per_s"] = metric{count["repl.log"] / secs, "1/s"}
	m["repl.log.useful_ratio"] = metric{ratio(useful, count["repl.log"]), "ratio"}
	m["repl.log.bytes_per_op"] = metric{ratio(bytes["repl.log"], ops), "B"}
	m["repl.feeds.list_per_s"] = metric{count["repl.feeds"] / secs, "1/s"}
	m["repl.feeds.list_bytes_per_s"] = metric{bytes["repl.feeds"] / secs, "B/s"}

	// obs: exposition size per member.
	m["obs.metrics_bytes"] = metric{float64(after[0].bytes+after[1].bytes) / 2, "B"}
	m["obs.metrics_series"] = metric{float64(after[0].series()+after[1].series()) / 2, "count"}

	// runtime and bench.
	m["runtime.alloc_bytes_per_op"] = metric{ratio(float64(traced.mem1.TotalAlloc-traced.mem0.TotalAlloc), ops), "B"}
	m["runtime.gc_cycles_per_s"] = metric{float64(traced.mem1.NumGC-traced.mem0.NumGC) / secs, "1/s"}
	m["runtime.goroutines"] = metric{float64(traced.goroutines), "count"}
	m["bench.lag_p99_ms"] = metric{quantile(plain.lags(), 0.99), "ms"}
	m["write_p99_ms"] = metric{quantile(plain.latencies(kindBatch), 0.99), "ms"}
	m["read_p99_ms"] = metric{quantile(plain.latencies(kindGet), 0.99), "ms"}
	cpuPlain := ratio(float64(plain.cpu), float64(plain.done))
	cpuTraced := ratio(float64(traced.cpu), float64(traced.done))
	m["bench.trace_overhead_pct"] = metric{100 * ratio(cpuTraced-cpuPlain, cpuPlain), "%"}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

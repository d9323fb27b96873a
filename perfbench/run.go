package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"grub/internal/core"
	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/server"
)

// runConfig is one benchmark run's command line.
type runConfig struct {
	root       string // checkout root; every file the run writes lives under it
	seed       uint64
	seconds    int
	trace      bool
	cpuprofile string
	memprofile string
	log        io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times an untraced run sets the cluster up; setup_s
// is their median.
const setups = 3

// session is one set-up cluster with its load lanes.
type session struct {
	s     spec
	g     *stream
	c     *testCluster
	lanes []*lane
	fresh *freshness
	dir   string
	// acked holds, per feed, every batch the owner acknowledged, in the
	// order the feed's one lane sent them.
	acked [][][]core.Op
	bad   []error // wrong answers seen by the lanes
}

// setup starts a cluster, creates and preloads the feeds, waits for both
// members to converge and runs the warm-up phase. Its duration is setup_s.
func setup(cfg runConfig, s spec, g *stream, tr *tracer) (*session, time.Duration, error) {
	dir, err := runDir(cfg.root)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c, err := startCluster(s, dir, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ss := &session{s: s, g: g, c: c, dir: dir, acked: make([][][]core.Op, len(g.Feeds))}
	fail := func(err error) (*session, time.Duration, error) {
		ss.close()
		return nil, 0, err
	}
	if err := c.createFeeds(g.Feeds, 120*time.Second); err != nil {
		return fail(err)
	}
	if err := c.preload(g.Feeds, g.Preload); err != nil {
		return fail(err)
	}
	for f := range g.Feeds {
		ss.acked[f] = append(ss.acked[f], g.Preload[f]...)
	}
	if err := c.waitConverged(g.Feeds, 120*time.Second); err != nil {
		return fail(err)
	}
	ss.fresh = newFreshness(c, g)
	for l := 0; l < lanes; l++ {
		ss.lanes = append(ss.lanes, newLane(c, g, tr, ss.fresh))
	}
	// Every verifying client pins its anchors before the first measured
	// read, as a long-lived reader would have.
	for _, l := range ss.lanes {
		for f, cfg := range g.Feeds {
			for _, v := range l.v {
				if _, err := v.Get(cfg.ID, ss.anyKey(f)); err != nil {
					return fail(fmt.Errorf("warm-up read: %w", err))
				}
			}
		}
	}
	ss.run(g.Warmup)
	if err := c.waitConverged(g.Feeds, 60*time.Second); err != nil {
		return fail(err)
	}
	return ss, time.Since(start), nil
}

// anyKey returns a preloaded key of feed f.
func (ss *session) anyKey(f int) string { return ss.g.Preload[f][0][0].Key }

func (ss *session) close() {
	if ss.fresh != nil {
		ss.fresh.close()
	}
	for _, l := range ss.lanes {
		l.close()
	}
	ss.c.close()
	os.RemoveAll(ss.dir)
}

// run drives one phase and books its acked batches and wrong answers.
func (ss *session) run(p phase) [][]outcome {
	exec := make([]func(*request) outcome, len(ss.lanes))
	for i, l := range ss.lanes {
		exec[i] = l.exec
	}
	outs := runLanes(time.Now().Add(time.Millisecond), p, exec)
	for l := range outs {
		for i, o := range outs[l] {
			r := &p.Lanes[l][i]
			if o.bad {
				ss.bad = append(ss.bad, o.err)
			}
			if r.Kind == kindBatch && o.err == nil {
				ss.acked[r.Feed] = append(ss.acked[r.Feed], r.Ops)
			}
		}
	}
	return outs
}

// feedGas sums the owners' cumulative feed-layer gas from /feeds/{id}/stats.
func (ss *session) feedGas() (float64, error) {
	t := 0.0
	for f, cfg := range ss.g.Feeds {
		st, err := server.NewClient(ss.c.m[ss.c.owner[f]].url).Stats(cfg.ID)
		if err != nil {
			return 0, err
		}
		t += float64(st.Feed.FeedGas)
	}
	return t, nil
}

// window is one measured phase.
type window struct {
	outs    [][]outcome
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration
	gas     float64
	fresh   []time.Duration
	// loadScrapes are the /metrics scrapes made during the window as load.
	loadScrapes []time.Duration
	mem0        runtime.MemStats
	mem1        runtime.MemStats
	attempts    int64
	done        int64
	failed      int64
	chainOps    int64 // completed batch ops
	// chainReads counts the on-chain reads among them.
	chainReads int64
	goroutines int
}

func (w *window) latencies(kind reqKind) []float64 {
	var out []float64
	for _, lane := range w.outs {
		for _, o := range lane {
			if o.kind == kind && o.err == nil {
				out = append(out, float64(o.lat)/float64(time.Millisecond))
			}
		}
	}
	return out
}

// writeP50 is write_p50_ms: the median write latency of each entry route
// (at the owner, or forwarded by the non-owner), averaged over the routes
// that carried writes. On fleet about half the batches are forwarded; one
// median over both latency modes would sit in the gap between them and jump
// with the share forwarded, while this mean moves by half of any change to
// the forward hop.
func (w *window) writeP50() float64 {
	var routes [2][]float64
	for _, lane := range w.outs {
		for _, o := range lane {
			if o.kind == kindBatch && o.err == nil {
				i := 0
				if o.fwd {
					i = 1
				}
				routes[i] = append(routes[i], float64(o.lat)/float64(time.Millisecond))
			}
		}
	}
	sum, n := 0.0, 0
	for _, r := range routes {
		if len(r) > 0 {
			sum += quantile(r, 0.5)
			n++
		}
	}
	return ratio(sum, float64(n))
}

func (w *window) lags() []float64 {
	var out []float64
	for _, lane := range w.outs {
		for _, o := range lane {
			out = append(out, float64(o.lag)/float64(time.Millisecond))
		}
	}
	return out
}

// measure runs one phase as a measured window.
func (ss *session) measure(p phase) (*window, error) {
	w := &window{}
	gas0, err := ss.feedGas()
	if err != nil {
		return nil, err
	}
	ss.fresh.take()
	runtime.ReadMemStats(&w.mem0)
	cpu0 := cpuTime()
	var sc *scraper
	if ss.s.scrapeHz > 0 {
		sc = startScraper(ss.c, time.Duration(float64(time.Second)/ss.s.scrapeHz))
	}
	start := time.Now()
	w.outs = ss.run(p)
	w.start, w.elapsed = start, time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	w.goroutines = runtime.NumGoroutine()
	if sc != nil {
		if w.loadScrapes, err = sc.close(); err != nil {
			return nil, err
		}
	}
	// Let the last batches reach the replica before taking the freshness
	// samples.
	if err := ss.c.waitConverged(ss.g.Feeds, 60*time.Second); err != nil {
		return nil, err
	}
	time.Sleep(4 * freshPoll)
	w.fresh = ss.fresh.take()
	gas1, err := ss.feedGas()
	if err != nil {
		return nil, err
	}
	w.gas = gas1 - gas0
	for _, lane := range w.outs {
		for _, o := range lane {
			w.attempts += int64(o.ops)
			if o.err != nil {
				w.failed += int64(o.ops)
				continue
			}
			w.done += int64(o.ops)
			if o.kind == kindBatch {
				w.chainOps += int64(o.ops)
				w.chainReads += int64(o.chainReads)
			}
		}
	}
	return w, nil
}

// check runs the output checks after the last window: both members agree
// on every shard's (seq, root, count), and every feed's gas, record count
// and replicated count on both members equal a single-threaded replay of
// the batches its owner acknowledged.
func (ss *session) check() []error {
	errs := append([]error(nil), ss.bad...)
	if err := ss.c.waitConverged(ss.g.Feeds, 60*time.Second); err != nil {
		errs = append(errs, err)
	}
	cl := [2]*server.Client{server.NewClient(ss.c.m[0].url), server.NewClient(ss.c.m[1].url)}
	for f, cfg := range ss.g.Feeds {
		r0, err0 := cl[0].Roots(cfg.ID)
		r1, err1 := cl[1].Roots(cfg.ID)
		if err := errors.Join(err0, err1); err != nil {
			errs = append(errs, err)
			continue
		}
		if !sameAnchors(r0, r1) {
			errs = append(errs, fmt.Errorf("%s: members disagree on anchors: %+v vs %+v", cfg.ID, r0, r1))
		}
		want, err := replay(cfg, ss.acked[f])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for i, c := range cl {
			st, err := c.Stats(cfg.ID)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			got := st.Feed
			if got.FeedGas != want.FeedGas || got.Records != want.Records || got.Replicated != want.Replicated {
				errs = append(errs, fmt.Errorf("%s on member %d: feedGas/records/replicated %d/%d/%d, replay %d/%d/%d",
					cfg.ID, i, got.FeedGas, got.Records, got.Replicated, want.FeedGas, want.Records, want.Replicated))
			}
		}
	}
	return errs
}

func sameAnchors(a, b []query.RootInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Shard != b[i].Shard || a[i].Seq != b[i].Seq || a[i].Root != b[i].Root || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

// replay applies a feed's acknowledged batches, in order, to a fresh
// single-caller sharded feed.
func replay(cfg server.FeedConfig, batches [][]core.Op) (core.FeedStats, error) {
	sf, err := server.NewShardedFeed(cfg)
	if err != nil {
		return core.FeedStats{}, err
	}
	defer sf.Close()
	for _, b := range batches {
		if _, err := sf.Do(b); err != nil {
			return core.FeedStats{}, err
		}
	}
	st, err := sf.Stats()
	return st.Feed, err
}

// releaseStream drops the session's references to the generated op stream
// once the checks no longer need it.
func (ss *session) releaseStream() {
	ss.acked = nil
	ss.g.Preload, ss.g.Warmup, ss.g.Windows, ss.g.versions = nil, phase{}, nil, nil
}

// runUntraced is the end-to-end run: setup_s is the median of several
// full set-ups; the last one is measured.
func runUntraced(cfg runConfig, s spec) (*result, error) {
	g := generate(s, cfg.seed, float64(cfg.seconds), 1)
	var durs []float64
	var ss *session
	for i := 0; i < setups; i++ {
		x, d, err := setup(cfg, s, g, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, d.Seconds())
		fmt.Fprintf(cfg.log, "setup %d: %.3fs\n", i+1, d.Seconds())
		if i < setups-1 {
			x.close()
			continue
		}
		ss = x
	}
	defer ss.close()
	w, err := ss.measure(g.Windows[0])
	if err != nil {
		return nil, err
	}
	errs := ss.check()
	for _, e := range errs {
		fmt.Fprintln(cfg.log, "check failed:", e)
	}
	writes, reads := w.latencies(kindBatch), w.latencies(kindGet)
	// heap_mb counts the gateways, not the benchmark: the generated stream
	// and the acked batches are released before the forced GC.
	ss.releaseStream()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res := &result{
		Correct: len(errs) == 0, Attempted: w.attempts, Failed: w.failed,
		Metrics: map[string]metric{
			"setup_s":       {quantile(durs, 0.5), "s"},
			"write_p50_ms":  {w.writeP50(), "ms"},
			"read_p50_ms":   {quantile(reads, 0.5), "ms"},
			"fresh_p50_ms":  {quantile(ms(w.fresh), 0.5), "ms"},
			"cpu_us_per_op": {ratio(float64(w.cpu.Microseconds()), float64(w.done)), "us"},
			"gas_per_op":    {ratio(w.gas, float64(w.chainOps)), "gas"},
			"ok_ratio":      {ratio(float64(w.done), float64(w.attempts)), "ratio"},
			"heap_mb":       {float64(mem.HeapInuse) / (1 << 20), "MB"},
		},
	}
	fmt.Fprintf(cfg.log, "window %.2fs: %d writes (p99 %.3fms), %d reads (p99 %.3fms), %d fresh samples, %d load scrapes, lag p99 %.3fms\n",
		w.elapsed.Seconds(), len(writes), quantile(writes, 0.99), len(reads), quantile(reads, 0.99),
		len(w.fresh), len(w.loadScrapes), quantile(w.lags(), 0.99))
	return res, nil
}

// runTraced is the per-layer run: the in-process ladder rungs, then one
// set-up with the tracing hooks installed, an idle window, an untraced
// window, a traced window, the output checks and the cluster rungs.
func runTraced(cfg runConfig, s spec) (*result, error) {
	g := generate(s, cfg.seed, float64(cfg.seconds), 2)
	m := map[string]metric{}
	if err := ladderLocal(cfg, s, g, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	tr := newTracer()
	ss, _, err := setup(cfg, s, g, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer ss.close()

	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	idle0, cpu0 := time.Now(), cpuTime()
	time.Sleep(idleWindow)
	m["bench.idle_cpu_cores"] = metric{float64(cpuTime()-cpu0) / float64(time.Since(idle0)), "cores"}

	plain, err := ss.measure(g.Windows[0])
	if err != nil {
		return nil, err
	}
	before, err := scrapeBoth(ss.c)
	if err != nil {
		return nil, err
	}
	readStats0 := verifiedStats(ss)
	tr.on.Store(true)
	traced, err := ss.measure(g.Windows[1])
	if err != nil {
		return nil, err
	}
	tr.on.Store(false)
	after, err := scrapeBoth(ss.c)
	if err != nil {
		return nil, err
	}
	readStats1 := verifiedStats(ss)
	tr.on.Store(true) // the scrapes' and the checks' calls are traced too
	scrapes, err := scrapeBurst(ss.c, scrapesAfter)
	if err != nil {
		return nil, err
	}
	m["scrape_p50_ms"] = metric{quantile(ms(scrapes), 0.5), "ms"}
	errs := ss.check()
	tr.on.Store(false)
	spans := tr.take()
	for _, e := range errs {
		fmt.Fprintln(cfg.log, "check failed:", e)
	}
	if err := ladderCluster(ss, g, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	win := [2]int64{tr.ns(traced.start), tr.ns(traced.start.Add(traced.elapsed))}
	layerMetrics(m, plain, traced, before, after, spans, win, readStats1-readStats0)
	runtime.GC()
	if cfg.memprofile != "" {
		if err := writeHeapProfile(cfg.memprofile); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", s.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%d spans written to %s\n", len(spans), path)
	return &result{Correct: len(errs) == 0, Attempted: traced.attempts, Failed: traced.failed, Metrics: m}, nil
}

// idleWindow is the fixed no-load stretch after set-up in which the traced
// run measures background CPU.
const idleWindow = 3 * time.Second

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verifiedStats sums the proof bytes every lane's verifying clients have
// accepted.
func verifiedStats(ss *session) int64 {
	var t int64
	for _, l := range ss.lanes {
		for _, v := range l.v {
			_, b := v.VerifiedStats()
			t += b
		}
	}
	return t
}

// scrapeBoth fetches and parses /metrics on both members.
func scrapeBoth(c *testCluster) ([2]expo, error) {
	var out [2]expo
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	for i, m := range c.m {
		body, err := scrape(hc, m.url)
		if err != nil {
			return out, err
		}
		fams, err := obs.ParseExposition(string(body))
		if err != nil {
			return out, fmt.Errorf("parse /metrics: %w", err)
		}
		out[i] = expo{fams: fams, bytes: len(body)}
	}
	return out, nil
}

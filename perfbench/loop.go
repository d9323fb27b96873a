package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"grub/internal/server"
)

// outcome is what one scheduled request did. Latency runs from the time the
// request was due, not from when it was sent, so a stall also shows in the
// latency of every request queued behind it.
type outcome struct {
	kind       reqKind
	fwd        bool // a batch sent to the non-owner, which forwards it
	ops        int
	chainReads int           // on-chain reads in the batch
	lat        time.Duration // due -> completed
	lag        time.Duration // due -> sent: how late the generator ran
	err        error
	// bad is set when the answer was wrong, not merely failed.
	bad bool
}

// runLanes drives each lane's schedule as an open loop from start, with one
// request in flight per lane: request i is sent at its due time, or when
// request i-1 completes if that is later. It returns when every lane has
// sent and completed all of its requests.
func runLanes(start time.Time, p phase, exec []func(*request) outcome) [][]outcome {
	out := make([][]outcome, len(p.Lanes))
	var wg sync.WaitGroup
	for l := range p.Lanes {
		out[l] = make([]outcome, len(p.Lanes[l]))
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := range p.Lanes[l] {
				r := &p.Lanes[l][i]
				due := start.Add(r.Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := exec[l](r)
				o.kind, o.ops = r.Kind, r.ops()
				o.fwd = r.Kind == kindBatch && r.To == toReplica
				for _, op := range r.Ops {
					if op.Type == "read" {
						o.chainReads++
					}
				}
				o.lat, o.lag = time.Since(due), sent.Sub(due)
				out[l][i] = o
			}
		}(l)
	}
	wg.Wait()
	return out
}

// lane is one load connection's clients: a write client and a verifying
// reader per member, sharing one transport. Each verifying client only ever
// talks to one member, so its pinned anchors see one node's history.
type lane struct {
	c     *testCluster
	s     *stream
	rt    *clientRT
	hc    *http.Client
	w     [2]*server.Client
	v     [2]*server.VerifyingClient
	seen  map[seenKey]int64 // newest value version each reader has returned
	fresh *freshness
}

type seenKey struct {
	node, feed int
	key        string
}

func newLane(c *testCluster, s *stream, tr *tracer, fresh *freshness) *lane {
	l := &lane{c: c, s: s, seen: make(map[seenKey]int64), fresh: fresh}
	l.rt = &clientRT{base: &http.Transport{MaxIdleConnsPerHost: 2}, tr: tr}
	l.hc = &http.Client{Transport: l.rt, Timeout: 30 * time.Second}
	for i, m := range c.m {
		l.w[i] = server.NewClient(m.url)
		l.v[i] = server.NewVerifyingClient(m.url)
		for _, cl := range []*server.Client{l.w[i], l.v[i].Client} {
			cl.HTTP, cl.Retry = l.hc, server.DefaultRetry
		}
	}
	return l
}

func (l *lane) close() { l.hc.CloseIdleConnections() }

// exec performs one request and checks its answer.
func (l *lane) exec(r *request) outcome {
	node := l.c.resolve(r.To, r.Feed)
	id := l.s.Feeds[r.Feed].ID
	call := l.rt.begin(r.Kind)
	defer l.rt.end(call)
	if r.Kind == kindBatch {
		res, err := l.w[node].Do(id, r.Ops)
		if err != nil {
			return outcome{err: err}
		}
		if len(res) != len(r.Ops) {
			return outcome{err: fmt.Errorf("%s: %d results for %d ops", id, len(res), len(r.Ops)), bad: true}
		}
		for _, x := range res {
			if x.Err != "" {
				return outcome{err: fmt.Errorf("%s: op %s: %s", id, x.Key, x.Err)}
			}
		}
		l.fresh.sample(r.Feed)
		return outcome{}
	}
	res, err := l.v[node].Get(id, r.Key)
	if err != nil {
		return outcome{err: err, bad: errors.Is(err, server.ErrVerification)}
	}
	if !res.Found || res.Record == nil {
		return outcome{err: fmt.Errorf("%s: preloaded key %s not found", id, r.Key), bad: true}
	}
	ver, ok := l.s.versions[valueHash(r.Feed, r.Key, res.Record.Value)]
	if !ok {
		return outcome{err: fmt.Errorf("%s: key %s returned a value never written to it", id, r.Key), bad: true}
	}
	k := seenKey{node, r.Feed, r.Key}
	if prev, ok := l.seen[k]; ok && ver < prev {
		return outcome{err: fmt.Errorf("%s: key %s went back from version %d to %d", id, r.Key, prev, ver), bad: true}
	}
	l.seen[k] = ver
	return outcome{}
}

// freshness samples how stale a replica's verified view is: for each acked
// batch it takes the owner's per-shard seqs right after the ack, then
// polls the replica's anchors until each shard reaches them.
type freshness struct {
	c       *testCluster
	s       *stream
	pending chan freshSample
	stop    chan struct{}
	done    chan struct{}

	mu  sync.Mutex
	got []time.Duration
}

type freshSample struct {
	feed int
	ack  time.Time
	seqs []uint64
}

// freshPoll is the replica polling interval, the resolution of
// fresh_p50_ms.
const freshPoll = 500 * time.Microsecond

func newFreshness(c *testCluster, s *stream) *freshness {
	f := &freshness{c: c, s: s,
		// Sized to the most acks that can land in one poll interval
		// with two lanes; a full buffer drops the sample.
		pending: make(chan freshSample, 64),
		stop:    make(chan struct{}), done: make(chan struct{})}
	go f.run()
	return f
}

func (f *freshness) sample(feed int) {
	ack := time.Now()
	roots, err := f.c.roots(f.c.owner[feed], f.s.Feeds[feed].ID)
	if err != nil {
		return
	}
	seqs := make([]uint64, len(roots))
	for i, r := range roots {
		seqs[i] = r.Seq
	}
	select {
	case f.pending <- freshSample{feed: feed, ack: ack, seqs: seqs}:
	default:
	}
}

func (f *freshness) run() {
	defer close(f.done)
	var open []freshSample
	for {
		if len(open) == 0 {
			select {
			case s := <-f.pending:
				open = append(open, s)
			case <-f.stop:
				return
			}
		}
		for more := true; more; {
			select {
			case s := <-f.pending:
				open = append(open, s)
			default:
				more = false
			}
		}
		now := time.Now()
		kept := open[:0]
		for _, s := range open {
			switch {
			case f.reached(s):
				f.mu.Lock()
				f.got = append(f.got, now.Sub(s.ack))
				f.mu.Unlock()
			case now.Sub(s.ack) < 10*time.Second:
				kept = append(kept, s)
			}
			// A sample the replica never reaches is dropped; the
			// convergence check after the window fails the run.
		}
		open = kept
		select {
		case <-f.stop:
			return
		case <-time.After(freshPoll):
		}
	}
}

func (f *freshness) reached(s freshSample) bool {
	roots, err := f.c.roots(f.c.replica(s.feed), f.s.Feeds[s.feed].ID)
	if err != nil || len(roots) != len(s.seqs) {
		return false
	}
	for i, r := range roots {
		if r.Seq < s.seqs[i] {
			return false
		}
	}
	return true
}

// take returns and clears the samples gathered so far.
func (f *freshness) take() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	got := f.got
	f.got = nil
	return got
}

func (f *freshness) close() {
	close(f.stop)
	<-f.done
}

// scraper GETs /metrics on both members every period, as Prometheus would,
// and times each scrape.
type scraper struct {
	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	lat []time.Duration
	err error
}

func startScraper(c *testCluster, period time.Duration) *scraper {
	sc := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	go func() {
		defer close(sc.done)
		defer hc.CloseIdleConnections()
		t := time.NewTimer(period / 2)
		defer t.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-t.C:
			}
			for _, m := range c.m {
				t0 := time.Now()
				_, err := scrape(hc, m.url)
				d := time.Since(t0)
				sc.mu.Lock()
				if err != nil {
					sc.err = err
				} else {
					sc.lat = append(sc.lat, d)
				}
				sc.mu.Unlock()
			}
			t.Reset(period)
		}
	}()
	return sc
}

// scrapesAfter is how many times the traced run scrapes each member right
// after its traced window for scrape_p50_ms, scrapeGap apart so one
// transient pause cannot cover most of them.
const (
	scrapesAfter = 10
	scrapeGap    = 50 * time.Millisecond
)

// scrapeBurst scrapes each member n times in turn and times each scrape.
func scrapeBurst(c *testCluster, n int) ([]time.Duration, error) {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	var out []time.Duration
	for i := 0; i < n; i++ {
		time.Sleep(scrapeGap)
		for _, m := range c.m {
			t0 := time.Now()
			if _, err := scrape(hc, m.url); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
		}
	}
	return out, nil
}

// scrape fetches a member's /metrics exposition.
func scrape(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return body, err
}

// close stops the scraper and returns its latencies.
func (sc *scraper) close() ([]time.Duration, error) {
	close(sc.stop)
	<-sc.done
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.lat, sc.err
}

package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must show up in the latency of every request
// queued behind the stall, not only in the stalled request: the open loop
// times each request from when it was due.
func TestStallShowsInQueuedLatency(t *testing.T) {
	const (
		n       = 40
		period  = 10 * time.Millisecond
		stallAt = 5
		stall   = 300 * time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()

	p := phase{Lanes: make([][]request, 1)}
	for i := 0; i < n; i++ {
		p.Lanes[0] = append(p.Lanes[0], request{Kind: kindGet, Due: time.Duration(i) * period})
	}
	exec := func(*request) outcome {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return outcome{err: err}
		}
		resp.Body.Close()
		return outcome{}
	}
	out := runLanes(time.Now(), p, []func(*request) outcome{exec})[0]

	if out[stallAt].lat < stall {
		t.Fatalf("stalled request latency %v, want >= %v", out[stallAt].lat, stall)
	}
	// Every request due while the stall lasted waited for it: its latency
	// covers the rest of the stall, and it was sent late.
	stallEnd := time.Duration(stallAt)*period + stall
	queued := 0
	for i := stallAt + 1; i < n; i++ {
		due := time.Duration(i) * period
		if due >= stallEnd {
			break
		}
		queued++
		if want := stallEnd - due; out[i].lat < want {
			t.Errorf("request %d: latency %v, want >= %v (queued behind the stall)", i, out[i].lat, want)
		}
		if out[i].lag <= 0 {
			t.Errorf("request %d: lag %v, want > 0", i, out[i].lag)
		}
		// Timed from send instead, the queued request would look fast.
		if service := out[i].lat - out[i].lag; service > stall/2 {
			t.Errorf("request %d: service time %v, want well under the stall", i, service)
		}
	}
	if queued < 20 {
		t.Fatalf("only %d requests queued behind the stall", queued)
	}
	// Once the backlog drains, requests are on time again.
	if last := out[n-1]; last.lag > 50*time.Millisecond {
		t.Errorf("last request still %v late", last.lag)
	}
}

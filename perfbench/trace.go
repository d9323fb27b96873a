package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/cluster"
)

// Tracing records spans at the layer boundaries the benchmark owns: load
// client calls (clientRT), each member's HTTP handler (tracer.handler) and
// each member's cluster transport (tracer.transport), which carries every
// heartbeat, forwarded write, /repl/feeds list and log fetch. The three
// hooks are installed for the whole traced run and record only while on is
// set, so the untraced and traced windows of one run share their wiring.

// spanHeader carries "<request id>.<parent span id>" from one hook to the
// next, so every span of one request shares the request ID.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   int    `json:"node"` // member index; -1 for the load client
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is request plus response body bytes.
	Bytes int64 `json:"bytes,omitempty"`
	// Attempts counts HTTP round trips of one client call.
	Attempts int `json:"attempts,omitempty"`
	// Useful marks a replication log fetch that returned entries.
	Useful bool `json:"useful,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanRef struct{ req, id uint64 }

type ctxKey struct{}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// child allocates a span under parent (a new request when parent is zero).
func (t *tracer) child(parent spanRef) spanRef {
	ref := spanRef{req: parent.req, id: t.ids.Add(1)}
	if ref.req == 0 {
		ref.req = ref.id
	}
	return ref
}

func encodeRef(r spanRef) string {
	return strconv.FormatUint(r.req, 10) + "." + strconv.FormatUint(r.id, 10)
}

func decodeRef(v string) spanRef {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{req, id}
}

// route classifies a request path into the span name suffix.
func route(method, path string) string {
	switch {
	case strings.HasSuffix(path, "/ops"):
		return "ops"
	case strings.HasSuffix(path, "/get"):
		return "get"
	case strings.HasSuffix(path, "/roots"):
		return "roots"
	case strings.HasSuffix(path, "/log"):
		return "repl.log"
	case strings.HasSuffix(path, "/snapshot"):
		return "repl.snapshot"
	case path == "/repl/feeds":
		return "repl.feeds"
	case path == "/metrics":
		return "metrics"
	case path == "/cluster/heartbeat":
		return "heartbeat"
	case path == "/feeds" && method == http.MethodPost:
		return "create"
	case strings.HasSuffix(path, "/stats"):
		return "stats"
	}
	return "other"
}

// handler wraps member node's gateway handler with a server span.
func (t *tracer) handler(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent := decodeRef(r.Header.Get(spanHeader))
		ref := t.child(parent)
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, ref)))
		t.add(span{Req: ref.req, ID: ref.id, Parent: parent.id, Name: "server." + route(r.Method, r.URL.Path), Node: node,
			Start: t.ns(start), End: t.ns(time.Now()), Bytes: cw.n + max(r.ContentLength, 0)})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport is member node's cluster.Options.HTTP transport.
func (t *tracer) transport(node int, base http.RoundTripper) http.RoundTripper {
	return &nodeRT{t: t, node: node, base: base}
}

type nodeRT struct {
	t    *tracer
	node int
	base http.RoundTripper
}

func (n *nodeRT) RoundTrip(req *http.Request) (*http.Response, error) {
	t := n.t
	if !t.on.Load() {
		return n.base.RoundTrip(req)
	}
	// A forwarded write runs on the ingress handler's context, which
	// carries the handler span; background calls start a request.
	parent, _ := req.Context().Value(ctxKey{}).(spanRef)
	ref := t.child(parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, encodeRef(ref))
	name := "cluster." + route(req.Method, req.URL.Path)
	switch {
	case req.Header.Get(cluster.ForwardedHeader) != "":
		name = "cluster.forward"
	case strings.HasPrefix(req.URL.Path, "/repl/"):
		name = route(req.Method, req.URL.Path)
	}
	start := time.Now()
	resp, err := n.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	s := span{Req: ref.req, ID: ref.id, Parent: parent.id, Name: name, Node: n.node,
		Start: t.ns(start), End: t.ns(time.Now()), Bytes: int64(len(body)) + max(req.ContentLength, 0)}
	if name == "repl.log" {
		s.Useful = bytes.Contains(body, []byte(`"entries":`))
	}
	t.add(s)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// clientRT is a load lane's transport. With tracing on, a lane brackets
// each call with begin/end and every HTTP attempt of the call carries the
// call's span reference. The lane is sequential and http.Client calls
// RoundTrip on the caller's goroutine, so cur needs no lock.
type clientRT struct {
	base http.RoundTripper
	tr   *tracer
	cur  *clientCall
}

type clientCall struct {
	ref      spanRef
	name     string
	start    time.Time
	attempts int
}

func (c *clientRT) begin(kind reqKind) *clientCall {
	if c.tr == nil || !c.tr.on.Load() {
		return nil
	}
	name := "client.ops"
	if kind == kindGet {
		name = "client.get"
	}
	c.cur = &clientCall{ref: c.tr.child(spanRef{}), name: name, start: time.Now()}
	return c.cur
}

func (c *clientRT) end(call *clientCall) {
	if call == nil {
		return
	}
	c.cur = nil
	c.tr.add(span{Req: call.ref.req, ID: call.ref.id, Name: call.name, Node: -1,
		Start: c.tr.ns(call.start), End: c.tr.ns(time.Now()), Attempts: call.attempts})
}

func (c *clientRT) RoundTrip(req *http.Request) (*http.Response, error) {
	call := c.cur
	if call == nil {
		return c.base.RoundTrip(req)
	}
	call.attempts++
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, encodeRef(call.ref))
	return c.base.RoundTrip(req)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

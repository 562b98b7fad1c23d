package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only by the benchmark's own code: around the
// client calls, in a middleware around each Handler(), and in the
// http.RoundTripper of the benchmark client and of the gateway's
// backend client. Nothing inside the program under test changes.

type spanKind uint8

const (
	kindClient    spanKind = iota // client.request: one facade Client call
	kindGateway                   // gateway.handler: meshgate's Handler()
	kindBackendRT                 // gateway.backend_rt: one shard attempt, hedges included
	kindServer                    // server.handler: a daemon's Handler()
)

var kindNames = [...]string{"client.request", "gateway.handler", "gateway.backend_rt", "server.handler"}

// spanHeader carries the parent span id across one HTTP hop.
const spanHeader = "X-Meshbench-Span"

type span struct {
	id, parent uint64
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
	firstByte  int64 // first byte written (handlers) or first path decoded (client); 0 = none
	routes     int   // client spans: paths delivered
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory while on; spans are analysed and
// written out when the run ends.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }
func (t *tracer) enabled() bool { return t.on.Load() }
func (t *tracer) add(s span)    { t.mu.Lock(); t.spans = append(t.spans, s); t.mu.Unlock() }
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

type spanKey struct{}
type captureKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(spanKey{}).(uint64)
	return id, ok
}

// withCapture asks the benchmark client's transport to copy the
// response body into buf, for verification after the timed window.
func withCapture(ctx context.Context, buf *bytes.Buffer) context.Context {
	return context.WithValue(ctx, captureKey{}, buf)
}

func routingPath(p string) bool { return p == "/v1/batch" || p == "/v1/route" }

// handler wraps a Handler() with a span of the given kind whose parent
// is read from spanHeader; the span id travels on in r.Context().
func (t *tracer) handler(kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() || !routingPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := span{id: t.newID(), parent: parent, kind: kind, start: t.now()}
		tw := &traceWriter{ResponseWriter: w, t: t}
		h.ServeHTTP(tw, r.WithContext(withSpan(r.Context(), sp.id)))
		sp.end, sp.firstByte = t.now(), tw.first
		t.add(sp)
	})
}

// traceWriter records when a handler first writes or flushes. It
// forwards Flush and Unwrap, so the pipelined and spliced paths keep
// streaming exactly as they do untraced.
type traceWriter struct {
	http.ResponseWriter
	t     *tracer
	first int64
}

func (w *traceWriter) mark() {
	if w.first == 0 {
		w.first = w.t.now()
	}
}

func (w *traceWriter) Write(p []byte) (int, error) {
	w.mark()
	return w.ResponseWriter.Write(p)
}

func (w *traceWriter) Flush() {
	w.mark()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *traceWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// benchTransport is the RoundTripper of the benchmark client and of
// the gateway's backend client. It copies the context's span id into
// spanHeader; with backendRT set it first opens a gateway.backend_rt
// span per attempt, closed when the response body is consumed. It also
// tees a response body into a capture buffer when the context asks.
type benchTransport struct {
	base      http.RoundTripper
	t         *tracer
	backendRT bool
}

func (bt *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	capture, _ := ctx.Value(captureKey{}).(*bytes.Buffer)
	var sp span
	if parent, ok := spanFrom(ctx); ok && bt.t.enabled() {
		id := parent
		if bt.backendRT {
			sp = span{id: bt.t.newID(), parent: parent, kind: kindBackendRT, start: bt.t.now()}
			id = sp.id
		}
		req = req.Clone(ctx)
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := bt.base.RoundTrip(req)
	if err != nil {
		if sp.id != 0 {
			sp.end = bt.t.now()
			bt.t.add(sp)
		}
		return nil, err
	}
	if capture != nil || sp.id != 0 {
		resp.Body = &tapBody{ReadCloser: resp.Body, capture: capture, t: bt.t, sp: sp}
	}
	return resp, nil
}

// tapBody ends the round-trip span at EOF, error or Close, whichever
// comes first, and copies what it reads into capture.
type tapBody struct {
	io.ReadCloser
	capture *bytes.Buffer
	t       *tracer
	sp      span
	done    bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.capture != nil {
		b.capture.Write(p[:n])
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tapBody) finish() {
	if b.sp.id == 0 || b.done {
		return
	}
	b.done = true
	b.sp.end = b.t.now()
	b.t.add(b.sp)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		rec := struct {
			ID        uint64 `json:"id"`
			Parent    uint64 `json:"parent"`
			Name      string `json:"name"`
			StartNS   int64  `json:"start_ns"`
			EndNS     int64  `json:"end_ns"`
			FirstByte int64  `json:"first_byte_ns,omitempty"`
			Routes    int    `json:"routes,omitempty"`
		}{s.id, s.parent, kindNames[s.kind], s.start, s.end, s.firstByte, s.routes}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

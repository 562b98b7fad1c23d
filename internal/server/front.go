package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/serial"
)

// The HTTP surface of meshrouted and meshgate. A path is a pure
// function of (seed, stream, s, t), so a daemon and a gateway are two
// sources of the same paths behind one front: method checks, the
// request deadline, admission, drain, request parsing and validation,
// format negotiation, JSON rendering and the shared /metrics lines
// live here once, and each service plugs in only its Engine.

// Engine is the path source behind a Front: the daemon's selector or
// the gateway's fan-out. The front makes one Engine call per admitted,
// validated routing request and one per /metrics scrape.
type Engine interface {
	// Route selects the path of p drawn with stream and appends its
	// hops to rows, returning 200 and the path's hop count. On failure
	// it writes the error response itself and returns its status.
	Route(ctx context.Context, w http.ResponseWriter, p mesh.Pair, stream uint64, rows *HopRows) (code int, edges int64)
	// Batch answers b, pair i drawn with stream b.Base+i. With rows nil
	// the engine owns the response and streams it as OMP2. Otherwise it
	// appends every path's hops to rows in order and returns 200
	// without writing, and the front renders the JSON. On failure it
	// writes the error response (unless the 200 is already committed)
	// and returns its status. routes and edges count the paths it
	// delivered.
	Batch(ctx context.Context, w http.ResponseWriter, b *Batch, rows *HopRows) (code int, routes, edges int64)
	// WriteMetrics writes the engine's own /metrics lines after the
	// front's shared ones.
	WriteMetrics(ctx context.Context, w io.Writer)
}

// FrontConfig sizes a Front. Each service fills it from its own
// defaulted Config.
type FrontConfig struct {
	// Prefix names every /metrics series: "meshrouted" or "meshgate".
	Prefix string
	// Mesh is the served topology that pairs are validated against.
	Mesh *mesh.Mesh
	// Info is the /v1/mesh identity; the front fills in MaxBatch,
	// Formats and Features.
	Info           MeshResponse
	MaxInFlight    int
	MaxQueue       int
	MaxBatch       int
	RequestTimeout time.Duration
}

// Front serves the routing endpoints over an Engine. All methods are
// safe for concurrent use.
type Front struct {
	cfg      FrontConfig
	eng      Engine
	adm      *Admitter
	streams  uint64 // single-route stream ids (atomic)
	draining atomic.Bool
	started  time.Time

	routeC metrics.ServerCounters
	batchC metrics.ServerCounters

	// batches pools the request side of /v1/batch (*Batch): body bytes,
	// decoded pair list and validated pairs.
	batches sync.Pool
}

// NewFront returns a front that serves eng under cfg.
func NewFront(cfg FrontConfig, eng Engine) *Front {
	cfg.Info.MaxBatch = cfg.MaxBatch
	cfg.Info.Formats = []string{"json", "wire2"}
	cfg.Info.Features = []string{"batch-base"}
	return &Front{
		cfg:     cfg,
		eng:     eng,
		adm:     NewAdmitter(cfg.MaxInFlight, cfg.MaxQueue),
		started: time.Now(),
	}
}

// Handler returns the service mux.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/route", f.routing(&f.routeC, f.doRoute))
	mux.HandleFunc("/v1/batch", f.routing(&f.batchC, f.doBatch))
	mux.HandleFunc("/v1/mesh", f.handleMesh)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	return mux
}

// Drain flips the front into draining mode: /healthz turns 503 so
// load balancers stop sending traffic, and new routing requests are
// shed. In-flight requests are unaffected; pair Drain with
// http.Server.Shutdown, which waits for them.
func (f *Front) Drain() { f.draining.Store(true) }

// Undrain reverses Drain: /healthz answers ok again and new work is
// admitted — an aborted rollout rejoins its gateway's rotation on the
// next health probe.
func (f *Front) Undrain() { f.draining.Store(false) }

// Draining reports whether Drain has been called.
func (f *Front) Draining() bool { return f.draining.Load() }

// Stats merges the per-endpoint request counters into one snapshot.
func (f *Front) Stats() metrics.ServerStats {
	r, b := f.routeC.Snapshot(), f.batchC.Snapshot()
	merged := r
	merged.Started += b.Started
	merged.Finished += b.Finished
	merged.OK += b.OK
	merged.ClientErrors += b.ClientErrors
	merged.ServerErrors += b.ServerErrors
	merged.Shed += b.Shed
	merged.Timeouts += b.Timeouts
	merged.Routes += b.Routes
	merged.Traversals += b.Traversals
	if b.MaxLatency > merged.MaxLatency {
		merged.MaxLatency = b.MaxLatency
	}
	if n := merged.Finished; n > 0 {
		// Recombine the per-endpoint averages weighted by request count.
		merged.AvgLatency = time.Duration(
			(int64(r.AvgLatency)*r.Finished + int64(b.AvgLatency)*b.Finished) / n)
	}
	return merged
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// WriteErr writes the standard {"error": ...} envelope. Exported so an
// engine answers its own failures with the same envelope.
func WriteErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// routing wraps one routing endpoint: POST only, the request deadline,
// admission, and the endpoint's books. Every 504 counts as a timeout.
func (f *Front) routing(c *metrics.ServerCounters,
	do func(context.Context, http.ResponseWriter, *http.Request) (int, int64, int64)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
		defer cancel()
		if !f.admitOrShed(ctx, w, c) {
			return
		}
		defer f.adm.Release()
		start := c.Start()
		code, routes, edges := do(ctx, w, r)
		if code == http.StatusGatewayTimeout {
			c.Timeout()
		}
		c.Done(code, start, routes, edges)
	}
}

// admitOrShed runs admission control for one routing request. ctx
// must carry the per-request deadline, so a queued request waits at
// most until its deadline — never unboundedly. It returns false
// (having written the response) when the request is shed or the
// front is draining; on true the caller owns a slot and must call
// release.
func (f *Front) admitOrShed(ctx context.Context, w http.ResponseWriter, c *metrics.ServerCounters) bool {
	if f.draining.Load() {
		c.Shed()
		w.Header().Set("Retry-After", "1")
		WriteErr(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if err := f.adm.Admit(ctx); err != nil {
		if errors.Is(err, ErrShed) {
			c.Shed()
			w.Header().Set("Retry-After", "1")
			WriteErr(w, http.StatusTooManyRequests, "overloaded: %d in flight, %d queued", f.cfg.MaxInFlight, f.cfg.MaxQueue)
		} else {
			c.Timeout()
			WriteErr(w, http.StatusServiceUnavailable, "canceled while queued: %v", err)
		}
		return false
	}
	return true
}

// routeRequest is the /v1/route body.
type routeRequest struct {
	S int `json:"s"`
	T int `json:"t"`
}

// RouteResponse is the /v1/route reply. Stream is the randomness
// stream the path was drawn with: replaying (seed, stream, s, t)
// against the same topology reproduces the path exactly.
type RouteResponse struct {
	Stream uint64 `json:"stream"`
	Path   []int  `json:"path"`
}

func (f *Front) doRoute(ctx context.Context, w http.ResponseWriter, r *http.Request) (code int, routes, edges int64) {
	var req routeRequest
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "decode request: %v", err)
		return http.StatusBadRequest, 0, 0
	}
	size := f.cfg.Mesh.Size()
	if req.S < 0 || req.S >= size || req.T < 0 || req.T >= size {
		WriteErr(w, http.StatusBadRequest, "pair (%d,%d) out of range for %v", req.S, req.T, f.cfg.Mesh)
		return http.StatusBadRequest, 0, 0
	}
	stream := atomic.AddUint64(&f.streams, 1) - 1
	rows := AcquireHopRows()
	defer rows.Release()
	p := mesh.Pair{S: mesh.NodeID(req.S), T: mesh.NodeID(req.T)}
	if code, edges = f.eng.Route(ctx, w, p, stream, rows); code != http.StatusOK {
		return code, 0, 0
	}
	writeJSON(w, http.StatusOK, RouteResponse{Stream: stream, Path: rows.Rows()[0]})
	return http.StatusOK, 1, edges
}

// MaxStreamBase caps the streams of a batch request: base + len(pairs)
// may not exceed it. That keeps every stream far below the 1<<48 bit
// the k-sample candidate streams flip (KSampleStream XORs j<<48), so a
// shard's candidate draws can never collide with another shard's
// primary streams, and any shard a gateway cuts from an accepted batch
// is accepted by its backend.
const MaxStreamBase = 1 << 40

// BatchResponse is the JSON /v1/batch reply. Path i belongs to pair i
// and was drawn with stream base+i: a batch is a pure function of
// (seed, base, pairs), so identical batches give identical paths — the
// reproducibility contract of the oblivious service.
type BatchResponse struct {
	Paths [][]int `json:"paths"`
}

// Batch is one validated /v1/batch request as the front hands it to
// an Engine: Pairs[i] routes with stream Base+i. It is pooled per
// front with the request's body bytes and decoded pair list, and
// refcounted: the handler holds one reference for the request's life,
// and an engine whose work outlives the handler (a gateway's hedge
// losers still marshal their shard of Pairs after the winner has
// answered) takes one more with Hold and drops it with Release. A nil
// *Batch is inert, for an engine routing pairs it owns.
type Batch struct {
	Pairs []mesh.Pair
	Base  uint64

	body []byte
	req  BatchRequest
	refs atomic.Int32
	pool *sync.Pool
}

// Hold keeps b's pairs alive until the matching Release.
func (b *Batch) Hold() {
	if b != nil {
		b.refs.Add(1)
	}
}

// Release drops one reference; the last one returns b to its pool.
func (b *Batch) Release() {
	if b != nil && b.refs.Add(-1) == 0 {
		b.pool.Put(b)
	}
}

func (f *Front) acquireBatch() *Batch {
	b, _ := f.batches.Get().(*Batch)
	if b == nil {
		b = &Batch{pool: &f.batches}
	}
	b.refs.Store(1)
	return b
}

func (f *Front) doBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) (code int, routes, edges int64) {
	b := f.acquireBatch()
	defer b.Release()
	limit := int64(64 + 48*f.cfg.MaxBatch) // JSON pair ≤ ~48 bytes
	var err error
	if b.body, err = readAppend(b.body[:0], http.MaxBytesReader(w, r.Body, limit)); err == nil {
		err = b.req.Decode(b.body)
	}
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "decode request: %v", err)
		return http.StatusBadRequest, 0, 0
	}
	n, base := len(b.req.Pairs), b.req.Base
	if n > f.cfg.MaxBatch {
		WriteErr(w, http.StatusRequestEntityTooLarge, "%d pairs exceeds max batch %d", n, f.cfg.MaxBatch)
		return http.StatusRequestEntityTooLarge, 0, 0
	}
	// Written so that it cannot wrap: base + n ≤ MaxStreamBase.
	if base > MaxStreamBase || uint64(n) > MaxStreamBase-base {
		WriteErr(w, http.StatusBadRequest, "base %d plus %d pairs exceeds max %d", base, n, uint64(MaxStreamBase))
		return http.StatusBadRequest, 0, 0
	}
	size := f.cfg.Mesh.Size()
	if cap(b.Pairs) < n {
		b.Pairs = make([]mesh.Pair, n)
	}
	b.Pairs, b.Base = b.Pairs[:n], base
	for i, pr := range b.req.Pairs {
		if pr[0] < 0 || pr[0] >= size || pr[1] < 0 || pr[1] >= size {
			WriteErr(w, http.StatusBadRequest, "pair %d (%d,%d) out of range for %v", i, pr[0], pr[1], f.cfg.Mesh)
			return http.StatusBadRequest, 0, 0
		}
		b.Pairs[i] = mesh.Pair{S: mesh.NodeID(pr[0]), T: mesh.NodeID(pr[1])}
	}

	format, ok := negotiateBatchFormat(r)
	if !ok {
		WriteErr(w, http.StatusBadRequest, `unknown format %q (want "json" or "wire2")`, format)
		return http.StatusBadRequest, 0, 0
	}
	if format == "wire2" {
		return f.eng.Batch(ctx, w, b, nil)
	}
	rows := AcquireHopRows()
	defer rows.Release()
	if code, routes, edges = f.eng.Batch(ctx, w, b, rows); code == http.StatusOK {
		writeJSON(w, code, BatchResponse{Paths: rows.Rows()})
	}
	return code, routes, edges
}

// negotiateBatchFormat resolves the response encoding of a /v1/batch
// request: the explicit ?format query parameter wins, otherwise the
// Accept header, otherwise "json". ok is false when an explicit
// format is unknown (the returned string is the offending value, for
// the error message).
func negotiateBatchFormat(r *http.Request) (format string, ok bool) {
	format = r.URL.Query().Get("format")
	switch format {
	case "":
		if strings.Contains(r.Header.Get("Accept"), serial.WireSegContentType) {
			return "wire2", true
		}
		return "json", true
	case "json", "wire2":
		return format, true
	}
	return format, false
}

// MeshResponse describes the served topology and limits, everything a
// typed client needs to validate pairs and decode the wire format. A
// gateway carries the cluster identity and its own (minimum) limits.
type MeshResponse struct {
	Spec     serial.MeshSpec `json:"mesh"`
	Seed     uint64          `json:"seed"`
	Variant  string          `json:"variant"`
	MaxBatch int             `json:"maxBatch"`
	// KSample is the semi-oblivious candidate count; 1 means pure
	// algorithm H and full replica reproducibility.
	KSample int `json:"ksample"`
	// Formats lists the /v1/batch encodings this front speaks; clients
	// use it to negotiate wire2 (absent on older daemons).
	Formats []string `json:"formats"`
	// Features lists protocol capabilities beyond the encodings:
	// "batch-base" means /v1/batch honors the "base" stream offset a
	// sharding gateway needs. Absent on older daemons.
	Features []string `json:"features,omitempty"`
}

func (f *Front) handleMesh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, f.cfg.Info)
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if f.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		// The in-flight count lets a rollout watcher poll the drain down
		// to zero before cutting power.
		fmt.Fprintf(w, "draining (in flight: %d)\n", f.adm.InFlight())
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the live counters in a flat text exposition
// (Prometheus-style `name{labels} value` lines): per-endpoint request
// and latency counters and the admission, drain and uptime gauges
// under the front's prefix — identical line shapes for both services,
// so one set of dashboards reads both — then the engine's own lines.
// Every figure is read with atomic loads while traffic is in flight:
// the scrape is a consistent-enough rolling view, never a
// stop-the-world.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := f.cfg.Prefix
	writeEndpointMetrics(w, p, "route", f.routeC.Snapshot())
	writeEndpointMetrics(w, p, "batch", f.batchC.Snapshot())
	fmt.Fprintf(w, "%s_admission_in_flight %d\n", p, f.adm.InFlight())
	fmt.Fprintf(w, "%s_admission_waiting %d\n", p, f.adm.Waiting())
	fmt.Fprintf(w, "%s_admission_in_flight_max %d\n", p, f.cfg.MaxInFlight)
	fmt.Fprintf(w, "%s_admission_queue_max %d\n", p, f.cfg.MaxQueue)
	draining := 0
	if f.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "%s_draining %d\n", p, draining)
	fmt.Fprintf(w, "%s_uptime_seconds %.3f\n", p, time.Since(f.started).Seconds())
	f.eng.WriteMetrics(r.Context(), w)
}

// writeEndpointMetrics renders one endpoint's request counters.
func writeEndpointMetrics(w io.Writer, prefix, endpoint string, st metrics.ServerStats) {
	e := func(name string, v int64) {
		fmt.Fprintf(w, "%s_%s{endpoint=%q} %d\n", prefix, name, endpoint, v)
	}
	e("requests_total", st.Requests())
	e("responses_ok_total", st.OK)
	e("responses_client_error_total", st.ClientErrors)
	e("responses_server_error_total", st.ServerErrors)
	e("shed_total", st.Shed)
	e("timeouts_total", st.Timeouts)
	e("requests_in_flight", st.InFlight())
	e("routes_total", st.Routes)
	e("route_edges_total", st.Traversals)
	fmt.Fprintf(w, "%s_latency_avg_seconds{endpoint=%q} %.9f\n",
		prefix, endpoint, st.AvgLatency.Seconds())
	fmt.Fprintf(w, "%s_latency_max_seconds{endpoint=%q} %.9f\n",
		prefix, endpoint, st.MaxLatency.Seconds())
}

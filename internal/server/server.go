// Package server is the network face of the oblivious router: an
// HTTP/JSON service (with a compact binary batch mode) over stdlib
// net/http that serves path selections from one shared core.Selector.
//
// Oblivious routing is the natural algorithm to serve this way — a
// path depends only on (seed, stream, source, target), so the server
// keeps no per-flow state, any replica with the same seed gives the
// same answers, and horizontal scaling is a load balancer away
// (Compact Oblivious Routing and Sparse Semi-Oblivious Routing both
// make this argument for oblivious schemes). What the server adds is
// production behavior: bounded-queue admission control that sheds load
// with 429 instead of queueing unboundedly, per-request deadlines
// propagated through context, live observability (/metrics exposes
// the LiveLoads hot edges, the routing-table footprint, k-sample stats
// and request counters), and graceful drain for SIGTERM rollouts.
//
// Every reply is rendered from the engine's run-length paths: a batch
// is selected chunk by chunk in one pipeline (pipeline.go) whose sink
// either streams the chunk as OMP2 or expands it into JSON node rows.
//
// Endpoints:
//
//	POST /v1/route    {"s":0,"t":17}            → {"stream":n,"path":[...]}
//	POST /v1/batch    {"pairs":[[s,t],...]}     → {"paths":[[...],...]}
//	                  ?format=wire2 (or Accept: application/x-obliviousmesh-segpaths)
//	                  streams the run-length binary encoding (OMP2) —
//	                  same paths, ~an order of magnitude fewer bytes
//	GET  /v1/mesh     topology + seed + limits + formats, for typed clients
//	GET  /healthz     200 ok / 503 draining
//	GET  /metrics     text exposition of live counters
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/serial"
)

// Config sizes a Server. The zero value of every limit picks a
// production-ish default; Mesh is required.
type Config struct {
	Mesh *mesh.Mesh
	// Seed keys the selector; replicas with equal (Mesh, Seed, General)
	// serve identical paths.
	Seed    uint64
	General bool // force the §4 construction on 2-D meshes
	// ChainSource picks the selector's chain backend: "" or "table"
	// (the compiled routing table: lock-free warm dispatch, footprint
	// on /metrics) or "none" (recompute per packet). Both serve
	// byte-identical paths.
	ChainSource string
	// KSample is the semi-oblivious candidate count: each packet draws
	// KSample independent algorithm-H candidates and commits the one
	// least loaded under a live-congestion snapshot. 0 and 1 (the
	// default) serve pure algorithm H; negative is rejected. Snapshots
	// refresh per batch chunk, so routing stays deterministic within a
	// chunk while later chunks see the load earlier ones booked.
	KSample int

	// MaxInFlight is the number of routing requests allowed to execute
	// concurrently (default 2×GOMAXPROCS).
	MaxInFlight int
	// MaxQueue is how many admitted-but-waiting requests may hold at
	// the admission gate before new arrivals are shed with 429
	// (default 4×MaxInFlight). Waiters are bounded by their request
	// deadline, so the gate never blocks unboundedly.
	MaxQueue int
	// MaxBatch caps the pairs of one /v1/batch request (default 65536).
	MaxBatch int
	// BatchWorkers caps the selection goroutines one batch request may
	// fan out to (default 4), so a single huge batch cannot monopolize
	// the CPUs that concurrent small requests need.
	BatchWorkers int
	// BatchChunk is the deadline-check granularity of batch selection:
	// the request context is consulted between chunks of this many
	// pairs (default 4096).
	BatchChunk int
	// RequestTimeout bounds each routing request (default 10s).
	RequestTimeout time.Duration
	// TopK is how many hot edges /metrics exposes (default 10).
	TopK int
	// LoadShards overrides the LiveLoads shard count (default: auto).
	LoadShards int
}

func (c *Config) fill() error {
	if c.Mesh == nil {
		return errors.New("server: Config.Mesh is required")
	}
	if _, err := core.ParseChainSource(c.ChainSource); err != nil {
		return fmt.Errorf("server: Config.ChainSource: %w", err)
	}
	if c.KSample < 0 {
		return fmt.Errorf("server: Config.KSample must be >= 0 (got %d)", c.KSample)
	}
	if c.KSample == 0 {
		c.KSample = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 65536
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = 4
	}
	if c.BatchChunk <= 0 {
		c.BatchChunk = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	return nil
}

// Server owns the selector, the live edge-load tracker and the request
// accounting. All methods are safe for concurrent use.
type Server struct {
	cfg  Config
	m    *mesh.Mesh
	sel  *core.Selector
	live *metrics.LiveLoads
	adm  *Admitter

	streams  uint64 // single-route stream ids (atomic)
	draining atomic.Bool
	started  time.Time

	// chunkHook, when set (tests only, before serving), runs at the
	// top of every batch chunk, in either format, with the chunk's
	// start index.
	chunkHook func(lo int)

	routeC metrics.ServerCounters
	batchC metrics.ServerCounters
	kc     ksampleCounters

	// pipe pools the batch pipeline's chunk buffers (*pipeBuf);
	// reqPool pools the batch request parse scratch (*batchScratch);
	// snapPool pools the k-sample /v1/route load snapshots (*[]int64 of
	// EdgeSpace). With the package's HopRows pool they make sequential
	// requests allocation-free at steady state.
	pipe     sync.Pool
	reqPool  sync.Pool
	snapPool sync.Pool
}

// New builds a Server (and its Selector) from cfg.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	v := core.VariantGeneral
	if cfg.Mesh.Dim() == 2 && !cfg.General {
		v = core.Variant2D
	}
	src, _ := core.ParseChainSource(cfg.ChainSource) // validated by fill
	sel, err := core.NewSelector(cfg.Mesh, core.Options{
		Variant: v, Seed: cfg.Seed, ChainSource: src, KSample: cfg.KSample,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &Server{
		cfg:     cfg,
		m:       cfg.Mesh,
		sel:     sel,
		live:    metrics.NewLiveLoads(cfg.Mesh, cfg.LoadShards),
		adm:     NewAdmitter(cfg.MaxInFlight, cfg.MaxQueue),
		started: time.Now(),
	}, nil
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/route", s.handleRoute)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/mesh", s.handleMesh)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Drain flips the server into draining mode: /healthz turns 503 so
// load balancers stop sending traffic, and new routing requests are
// shed. In-flight requests are unaffected; pair Drain with
// http.Server.Shutdown, which waits for them.
func (s *Server) Drain() { s.draining.Store(true) }

// Undrain reverses Drain: /healthz answers ok again and new work is
// admitted — an aborted rollout rejoins its gateway's rotation on the
// next health probe.
func (s *Server) Undrain() { s.draining.Store(false) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats merges the per-endpoint request counters into one snapshot.
func (s *Server) Stats() metrics.ServerStats {
	r, b := s.routeC.Snapshot(), s.batchC.Snapshot()
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

// Live exposes the edge-load tracker (read-mostly: Snapshot/Max).
func (s *Server) Live() *metrics.LiveLoads { return s.live }

// Mesh returns the served topology.
func (s *Server) Mesh() *mesh.Mesh { return s.m }

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON body of a code response. Exported so
// sibling services (the gateway) answer with the exact same envelope.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// WriteErr writes the standard {"error": ...} envelope.
func WriteErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// admitOrShed runs admission control for one routing request. ctx
// must carry the per-request deadline, so a queued request waits at
// most until its deadline — never unboundedly. It returns false
// (having written the response) when the request is shed or the
// server is draining; on true the caller owns a slot and must call
// release.
func (s *Server) admitOrShed(ctx context.Context, w http.ResponseWriter, c *metrics.ServerCounters) bool {
	if s.draining.Load() {
		c.Shed()
		w.Header().Set("Retry-After", "1")
		WriteErr(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if err := s.adm.Admit(ctx); err != nil {
		if errors.Is(err, ErrShed) {
			c.Shed()
			w.Header().Set("Retry-After", "1")
			WriteErr(w, http.StatusTooManyRequests, "overloaded: %d in flight, %d queued", s.cfg.MaxInFlight, s.cfg.MaxQueue)
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

// RouteResponse is the /v1/route reply of the daemon and the gateway.
// Stream is the randomness stream the path was drawn with: replaying
// (seed, stream, s, t) against the same topology reproduces the path
// exactly.
type RouteResponse struct {
	Stream uint64 `json:"stream"`
	Path   []int  `json:"path"`
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if !s.admitOrShed(ctx, w, &s.routeC) {
		return
	}
	defer s.adm.Release()
	start := s.routeC.Start()
	code, routes, edges := s.doRoute(w, r)
	s.routeC.Done(code, start, routes, edges)
}

func (s *Server) doRoute(w http.ResponseWriter, r *http.Request) (code int, routes, edges int64) {
	var req routeRequest
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "decode request: %v", err)
		return http.StatusBadRequest, 0, 0
	}
	size := s.m.Size()
	if req.S < 0 || req.S >= size || req.T < 0 || req.T >= size {
		WriteErr(w, http.StatusBadRequest, "pair (%d,%d) out of range for %v", req.S, req.T, s.m)
		return http.StatusBadRequest, 0, 0
	}
	stream := atomic.AddUint64(&s.streams, 1) - 1
	// A sampling server scores the candidates against the tracker as it
	// stands right now; the snapshot buffer is pooled, as one EdgeSpace
	// vector per request would be 16 MiB at side 1024. At k ≤ 1 the
	// snapshot stays nil and KSegPath is exactly SegPath.
	var buf *[]int64
	var snap []int64
	if s.cfg.KSample > 1 {
		buf = s.getLoadSnap()
		snap = s.live.SnapshotInto(*buf)
	}
	sp, _, ks := s.sel.KSegPath(mesh.NodeID(req.S), mesh.NodeID(req.T), stream, snap)
	if buf != nil {
		s.putLoadSnap(buf)
		s.kc.add(ks)
	}
	s.live.AddSegPath(s.m, stream, sp)
	rows := AcquireHopRows()
	rows.Append(s.m, sp)
	WriteJSON(w, http.StatusOK, RouteResponse{Stream: stream, Path: rows.Rows()[0]})
	rows.Release()
	return http.StatusOK, 1, int64(sp.Len())
}

// MaxStreamBase caps the "base" field of a batch request. It keeps
// base + MaxBatch far below the 1<<48 bit the k-sample candidate
// streams flip (KSampleStream XORs j<<48), so a shard's candidate
// draws can never collide with another shard's primary streams.
const MaxStreamBase = 1 << 40

// BatchResponse is the JSON /v1/batch reply of the daemon and the
// gateway. Path i belongs to pair i and was drawn with stream
// base+i: a batch is a pure function of (seed, base, pairs), so
// identical batches give identical paths — the reproducibility
// contract of the oblivious service.
type BatchResponse struct {
	Paths [][]int `json:"paths"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if !s.admitOrShed(ctx, w, &s.batchC) {
		return
	}
	defer s.adm.Release()
	start := s.batchC.Start()
	code, routes, edges := s.doBatch(ctx, w, r)
	if code == http.StatusGatewayTimeout {
		s.batchC.Timeout()
	}
	s.batchC.Done(code, start, routes, edges)
}

func (s *Server) doBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) (code int, routes, edges int64) {
	limit := int64(64 + 48*s.cfg.MaxBatch) // JSON pair ≤ ~48 bytes
	body := http.MaxBytesReader(w, r.Body, limit)
	bs := s.getBatchScratch()
	defer s.putBatchScratch(bs)
	var err error
	if bs.body, err = ReadAppend(bs.body[:0], body); err == nil {
		err = bs.req.Decode(bs.body)
	}
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "decode request: %v", err)
		return http.StatusBadRequest, 0, 0
	}
	req := &bs.req
	if len(req.Pairs) > s.cfg.MaxBatch {
		WriteErr(w, http.StatusRequestEntityTooLarge, "%d pairs exceeds max batch %d", len(req.Pairs), s.cfg.MaxBatch)
		return http.StatusRequestEntityTooLarge, 0, 0
	}
	if req.Base > MaxStreamBase {
		WriteErr(w, http.StatusBadRequest, "base %d exceeds max %d", req.Base, uint64(MaxStreamBase))
		return http.StatusBadRequest, 0, 0
	}
	size := s.m.Size()
	pairs := bs.pairsFor(len(req.Pairs))
	for i, pr := range req.Pairs {
		if pr[0] < 0 || pr[0] >= size || pr[1] < 0 || pr[1] >= size {
			WriteErr(w, http.StatusBadRequest, "pair %d (%d,%d) out of range for %v", i, pr[0], pr[1], s.m)
			return http.StatusBadRequest, 0, 0
		}
		pairs[i] = mesh.Pair{S: mesh.NodeID(pr[0]), T: mesh.NodeID(pr[1])}
	}

	format, ok := NegotiateBatchFormat(r)
	if !ok {
		WriteErr(w, http.StatusBadRequest, `unknown format %q (want "json" or "wire2")`, format)
		return http.StatusBadRequest, 0, 0
	}

	if format == "wire2" {
		return s.batchWire2(ctx, w, pairs, req.Base)
	}
	return s.batchJSON(ctx, w, pairs, req.Base)
}

// NegotiateBatchFormat resolves the response encoding of a /v1/batch
// request: the explicit ?format query parameter wins, otherwise the
// Accept header, otherwise "json". ok is false when an explicit
// format is unknown (the returned string is the offending value, for
// the error message). Exported so the gateway negotiates identically.
func NegotiateBatchFormat(r *http.Request) (format string, ok bool) {
	format = r.URL.Query().Get("format")
	switch format {
	case "":
		accept := r.Header.Get("Accept")
		switch {
		case strings.Contains(accept, serial.WireSegContentType):
			return "wire2", true
		default:
			return "json", true
		}
	case "json", "wire2":
		return format, true
	}
	return format, false
}

// MeshResponse describes the served topology and limits, everything a
// typed client needs to validate pairs and decode the wire format. The
// gateway answers /v1/mesh with it too, carrying the cluster identity
// and its own (minimum) limits.
type MeshResponse struct {
	Spec     serial.MeshSpec `json:"mesh"`
	Seed     uint64          `json:"seed"`
	Variant  string          `json:"variant"`
	MaxBatch int             `json:"maxBatch"`
	// KSample is the semi-oblivious candidate count; 1 means pure
	// algorithm H and full replica reproducibility.
	KSample int `json:"ksample"`
	// Formats lists the /v1/batch encodings this daemon speaks; clients
	// use it to negotiate wire2 (absent on older daemons).
	Formats []string `json:"formats"`
	// Features lists protocol capabilities beyond the encodings:
	// "batch-base" means /v1/batch honors the "base" stream offset a
	// sharding gateway needs. Absent on older daemons.
	Features []string `json:"features,omitempty"`
}

func (s *Server) handleMesh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	variant := "general"
	if s.sel.Options().Variant == core.Variant2D {
		variant = "2d"
	}
	WriteJSON(w, http.StatusOK, MeshResponse{
		Spec:     serial.Spec(s.m),
		Seed:     s.cfg.Seed,
		Variant:  variant,
		MaxBatch: s.cfg.MaxBatch,
		KSample:  s.cfg.KSample,
		Formats:  []string{"json", "wire2"},
		Features: []string{"batch-base"},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		// The in-flight count lets a rollout watcher poll the drain down
		// to zero before cutting power.
		fmt.Fprintf(w, "draining (in flight: %d)\n", s.adm.InFlight())
		return
	}
	fmt.Fprintln(w, "ok")
}

// Package gateway is the horizontal face of a meshrouted cluster: one
// HTTP daemon that serves the exact same surface as a single routing
// daemon (/v1/route, /v1/batch in JSON/wire2, /v1/mesh, /healthz,
// /metrics) by fanning every batch out across N identically-seeded
// backends and splicing the shards back together.
//
// Oblivious routing is what makes the splice exact rather than
// approximate: a path is a pure function of (seed, stream, s, t), and
// the daemon's "batch-base" feature lets the gateway ask backend j to
// route pairs[lo:hi] with streams lo..hi-1 — so a contiguous split by
// global stream index returns, shard by shard, precisely the paths one
// daemon would have produced for the whole batch. The gateway splices
// those shards' raw wire2 records into one stream — the response
// itself for wire2, the input of the JSON rendering otherwise — and
// the response is byte-identical to a single node's (the golden tests
// pin this).
//
// Around that core the gateway adds the cluster concerns a load
// balancer cannot: health-gated membership (dead or draining backends
// leave the rotation between probe ticks and their shards re-fan to
// survivors mid-request), hedged retries (a straggling shard is
// duplicated onto a second backend after a latency quantile, first
// answer wins, the loser is canceled), and a merged /metrics view
// (per-backend up/load gauges plus cluster-summed counters).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/server"
)

// errNoBackends is the fan-out's terminal failure: every backend is
// dead, draining, or already tried for this shard.
var errNoBackends = errors.New("gateway: no healthy backends")

// Config sizes a Gateway. Backends is required; every other zero value
// picks a production-ish default.
type Config struct {
	// Backends lists the meshrouted base URLs the gateway shards over.
	// All backends must serve the same (mesh, seed, variant, ksample)
	// and advertise wire2 + batch-base; New refuses a mismatched or
	// incapable member instead of serving wrong bytes.
	Backends []string
	// HTTPClient overrides the transport shared by the backend clients.
	HTTPClient *http.Client

	// MaxInFlight / MaxQueue run the same bounded-queue admission gate
	// as the daemon (defaults 2×GOMAXPROCS and 4×MaxInFlight).
	MaxInFlight int
	MaxQueue    int
	// MaxBatch caps one /v1/batch request. The effective cap is the
	// minimum of this and every backend's advertised MaxBatch, so a
	// re-fanned whole-shard always fits on a lone survivor.
	MaxBatch int
	// RequestTimeout bounds each gateway request (default 30s).
	RequestTimeout time.Duration
	// BackendTimeout bounds each sub-request to one backend, retries
	// included (default 10s).
	BackendTimeout time.Duration
	// BackendRetries is the per-backend transient retry budget of each
	// sub-request before the gateway demotes the backend and re-fans
	// (default 1; negative disables).
	BackendRetries int

	// HedgeAfter is the straggler timer: a shard still unanswered after
	// this long is duplicated onto another healthy backend, first
	// answer wins. 0 sizes the timer adaptively (2× the p90 of recent
	// shard latencies, once enough samples exist); DisableHedge turns
	// hedging off entirely.
	HedgeAfter   time.Duration
	DisableHedge bool

	// ProbeInterval is the health-check cadence per backend
	// (default 500ms).
	ProbeInterval time.Duration

	// SpliceDepth bounds how many shards past the flush cursor may be
	// fetched (and so parked) at once: shard i starts only when shard
	// i−SpliceDepth has flushed, so a straggling early shard cannot make
	// the gateway buffer the whole batch (default 4).
	SpliceDepth int
}

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return errors.New("gateway: Config.Backends is required")
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.BackendTimeout <= 0 {
		c.BackendTimeout = 10 * time.Second
	}
	if c.BackendRetries == 0 {
		c.BackendRetries = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.SpliceDepth <= 0 {
		c.SpliceDepth = 4
	}
	return nil
}

// Gateway shards batches over a set of meshrouted backends. All
// methods are safe for concurrent use.
type Gateway struct {
	cfg      Config
	m        *mesh.Mesh
	info     obliviousmesh.ServerInfo // the common backend identity
	maxBatch int
	adm      *server.Admitter
	backends []*backend

	streams  uint64 // single-route stream ids (atomic)
	rr       uint64 // round-robin fan-out cursor (atomic)
	draining atomic.Bool
	started  time.Time

	routeC metrics.ServerCounters
	batchC metrics.ServerCounters
	hedges atomic.Int64
	refans atomic.Int64

	spliceBatches      atomic.Int64 // wire2 batches spliced straight into the response
	spliceBytes        atomic.Int64 // shard payload bytes spliced
	spliceParkedShards atomic.Int64 // shards that completed before their flush turn
	spliceParkedPeak   atomic.Int64 // high-water mark of simultaneously parked bytes
	hedgeWasted        atomic.Int64 // bytes fetched by hedge losers and thrown away

	lat latWindow

	// reqPool pools the batch ingress scratch (*batchScratch): body
	// bytes and the decoded pair list, so a steady stream of equal-sized
	// batches parses with zero slice growth — the same discipline the
	// daemon runs. The validated []Pair recycles separately through
	// pairsPool, under a refcounting lease (see pairsLease).
	reqPool sync.Pool

	stop chan struct{}
	wg   sync.WaitGroup
}

// batchScratch is the gateway's pooled ingress bundle: the daemon's
// request type, parsed the same way.
type batchScratch struct {
	body []byte
	req  server.BatchRequest
}

func (g *Gateway) getBatchScratch() *batchScratch {
	if bs, ok := g.reqPool.Get().(*batchScratch); ok {
		return bs
	}
	return &batchScratch{}
}

func (g *Gateway) putBatchScratch(bs *batchScratch) { g.reqPool.Put(bs) }

// pairsPool + pairsLease recycle the validated []Pair of a batch. The
// slice cannot simply be pooled when doBatch returns: a hedge loser's
// attempt goroutine may still be marshaling its shard of the pairs
// while the winner's response is already on the wire. So the batch
// handler holds one reference, every shard sub-request wave holds one
// more, and the backing array goes back to the pool only when the last
// detached drain lets go. A nil lease (single-route path) is inert.
var pairsPool = sync.Pool{New: func() any { return new([]obliviousmesh.Pair) }}

type pairsLease struct {
	bp   *[]obliviousmesh.Pair
	refs atomic.Int64
}

func leasePairs(n int) (*pairsLease, []obliviousmesh.Pair) {
	bp := pairsPool.Get().(*[]obliviousmesh.Pair)
	if cap(*bp) < n {
		*bp = make([]obliviousmesh.Pair, n)
	}
	l := &pairsLease{bp: bp}
	l.refs.Store(1)
	return l, (*bp)[:n]
}

func (l *pairsLease) acquire() {
	if l != nil {
		l.refs.Add(1)
	}
}

func (l *pairsLease) release() {
	if l != nil && l.refs.Add(-1) == 0 {
		pairsPool.Put(l.bp)
	}
}

// New validates the cluster and starts the health probers. Every
// configured backend must be reachable and identical in everything
// that determines path bytes; Close stops the probers.
func New(ctx context.Context, cfg Config) (*Gateway, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		adm:     server.NewAdmitter(cfg.MaxInFlight, cfg.MaxQueue),
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	for _, url := range cfg.Backends {
		b := newBackend(url, cfg)
		info, err := b.client.Info(ctx)
		if err != nil {
			return nil, fmt.Errorf("gateway: backend %s: %w", url, err)
		}
		if err := g.admitMember(info); err != nil {
			return nil, fmt.Errorf("gateway: backend %s: %w", url, err)
		}
		b.healthy.Store(true)
		g.backends = append(g.backends, b)
	}
	m, err := g.info.Mesh.Build()
	if err != nil {
		return nil, fmt.Errorf("gateway: backend topology: %w", err)
	}
	g.m = m
	if cfg.MaxBatch > 0 && cfg.MaxBatch < g.maxBatch {
		g.maxBatch = cfg.MaxBatch
	}
	g.wg.Add(1)
	go g.probeLoop()
	return g, nil
}

// admitMember folds one backend's /v1/mesh identity into the cluster
// view, rejecting anything that would break byte-equality.
func (g *Gateway) admitMember(info obliviousmesh.ServerInfo) error {
	if !info.HasFeature("batch-base") {
		return errors.New("does not advertise the batch-base feature")
	}
	if !supportsFormat(info, "wire2") {
		return errors.New("does not advertise the wire2 format")
	}
	if len(g.backends) == 0 {
		g.info = info
		g.maxBatch = info.MaxBatch
		return nil
	}
	ref := g.info
	switch {
	case !ref.Mesh.Equal(info.Mesh):
		return fmt.Errorf("topology %v differs from cluster %v", info.Mesh, ref.Mesh)
	case ref.Seed != info.Seed:
		return fmt.Errorf("seed %d differs from cluster %d", info.Seed, ref.Seed)
	case ref.Variant != info.Variant:
		return fmt.Errorf("variant %q differs from cluster %q", info.Variant, ref.Variant)
	case ref.KSample != info.KSample:
		return fmt.Errorf("ksample %d differs from cluster %d", info.KSample, ref.KSample)
	}
	if info.MaxBatch < g.maxBatch {
		g.maxBatch = info.MaxBatch
	}
	return nil
}

func supportsFormat(info obliviousmesh.ServerInfo, format string) bool {
	for _, f := range info.Formats {
		if f == format {
			return true
		}
	}
	return false
}

// Close stops the health probers. In-flight requests are unaffected.
func (g *Gateway) Close() {
	close(g.stop)
	g.wg.Wait()
}

// Drain flips the gateway into draining mode, exactly like the
// daemon's: /healthz turns 503 and new routing requests are shed.
func (g *Gateway) Drain() { g.draining.Store(true) }

// Undrain reverses Drain.
func (g *Gateway) Undrain() { g.draining.Store(false) }

// Draining reports whether Drain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Mesh returns the cluster topology.
func (g *Gateway) Mesh() *mesh.Mesh { return g.m }

// MaxBatch returns the effective batch cap (the cluster minimum).
func (g *Gateway) MaxBatch() int { return g.maxBatch }

// Handler returns the service mux — the same five endpoints as the
// daemon.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/route", g.handleRoute)
	mux.HandleFunc("/v1/batch", g.handleBatch)
	mux.HandleFunc("/v1/mesh", g.handleMesh)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	return mux
}

// admitOrShed is the daemon's admission policy verbatim: drain and
// overflow shed with Retry-After, queued waiters are deadline-bounded.
func (g *Gateway) admitOrShed(ctx context.Context, w http.ResponseWriter, c *metrics.ServerCounters) bool {
	if g.draining.Load() {
		c.Shed()
		w.Header().Set("Retry-After", "1")
		server.WriteErr(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if err := g.adm.Admit(ctx); err != nil {
		if errors.Is(err, server.ErrShed) {
			c.Shed()
			w.Header().Set("Retry-After", "1")
			server.WriteErr(w, http.StatusTooManyRequests, "overloaded: %d in flight, %d queued", g.cfg.MaxInFlight, g.cfg.MaxQueue)
		} else {
			c.Timeout()
			server.WriteErr(w, http.StatusServiceUnavailable, "canceled while queued: %v", err)
		}
		return false
	}
	return true
}

func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	if !g.admitOrShed(ctx, w, &g.routeC) {
		return
	}
	defer g.adm.Release()
	start := g.routeC.Start()
	code, routes, edges := g.doRoute(ctx, w, r)
	g.routeC.Done(code, start, routes, edges)
}

func (g *Gateway) doRoute(ctx context.Context, w http.ResponseWriter, r *http.Request) (code int, routes, edges int64) {
	var req struct {
		S int `json:"s"`
		T int `json:"t"`
	}
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		server.WriteErr(w, http.StatusBadRequest, "decode request: %v", err)
		return http.StatusBadRequest, 0, 0
	}
	size := g.m.Size()
	if req.S < 0 || req.S >= size || req.T < 0 || req.T >= size {
		server.WriteErr(w, http.StatusBadRequest, "pair (%d,%d) out of range for %v", req.S, req.T, g.m)
		return http.StatusBadRequest, 0, 0
	}
	// One route is a one-pair batch based at the gateway's own stream
	// counter — the same replayability contract as the daemon's.
	stream := atomic.AddUint64(&g.streams, 1) - 1
	pair := []obliviousmesh.Pair{{S: obliviousmesh.NodeID(req.S), T: obliviousmesh.NodeID(req.T)}}
	buf := gatherPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer gatherPool.Put(buf)
	dec, _, err := g.gather(ctx, buf, nil, pair, stream)
	var sp obliviousmesh.SegPath
	if err == nil {
		sp, err = dec.NextLent()
	}
	if err == nil {
		err = dec.Close()
	}
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	rows := server.AcquireHopRows()
	defer rows.Release()
	rows.Append(g.m, sp)
	server.WriteJSON(w, http.StatusOK, server.RouteResponse{Stream: stream, Path: rows.Rows()[0]})
	return http.StatusOK, 1, int64(sp.Len())
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	if !g.admitOrShed(ctx, w, &g.batchC) {
		return
	}
	defer g.adm.Release()
	start := g.batchC.Start()
	code, routes, edges := g.doBatch(ctx, w, r)
	if code == http.StatusGatewayTimeout {
		g.batchC.Timeout()
	}
	g.batchC.Done(code, start, routes, edges)
}

func (g *Gateway) doBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) (code int, routes, edges int64) {
	limit := int64(64 + 48*g.maxBatch)
	bs := g.getBatchScratch()
	defer g.putBatchScratch(bs)
	var err error
	if bs.body, err = server.ReadAppend(bs.body[:0], http.MaxBytesReader(w, r.Body, limit)); err == nil {
		err = bs.req.Decode(bs.body)
	}
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, "decode request: %v", err)
		return http.StatusBadRequest, 0, 0
	}
	req := &bs.req
	if len(req.Pairs) > g.maxBatch {
		server.WriteErr(w, http.StatusRequestEntityTooLarge, "%d pairs exceeds max batch %d", len(req.Pairs), g.maxBatch)
		return http.StatusRequestEntityTooLarge, 0, 0
	}
	if req.Base > server.MaxStreamBase {
		server.WriteErr(w, http.StatusBadRequest, "base %d exceeds max %d", req.Base, uint64(server.MaxStreamBase))
		return http.StatusBadRequest, 0, 0
	}
	// Stricter than one daemon by len(pairs): shard j re-posts with
	// base+lo, which must itself pass the daemon's base check.
	if req.Base+uint64(len(req.Pairs)) > server.MaxStreamBase {
		server.WriteErr(w, http.StatusBadRequest, "base %d plus %d pairs exceeds max %d", req.Base, len(req.Pairs), uint64(server.MaxStreamBase))
		return http.StatusBadRequest, 0, 0
	}
	size := g.m.Size()
	lease, pairs := leasePairs(len(req.Pairs))
	defer lease.release()
	for i, pr := range req.Pairs {
		if pr[0] < 0 || pr[0] >= size || pr[1] < 0 || pr[1] >= size {
			server.WriteErr(w, http.StatusBadRequest, "pair %d (%d,%d) out of range for %v", i, pr[0], pr[1], g.m)
			return http.StatusBadRequest, 0, 0
		}
		pairs[i] = obliviousmesh.Pair{S: obliviousmesh.NodeID(pr[0]), T: obliviousmesh.NodeID(pr[1])}
	}

	format, ok := server.NegotiateBatchFormat(r)
	if !ok {
		server.WriteErr(w, http.StatusBadRequest, `unknown format %q (want "json" or "wire2")`, format)
		return http.StatusBadRequest, 0, 0
	}
	if format == "wire2" {
		return g.spliceBatch(ctx, w, lease, pairs, req.Base)
	}

	buf := gatherPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer gatherPool.Put(buf)
	dec, edges, err := g.gather(ctx, buf, lease, pairs, req.Base)
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	// The daemon's row renderer expands the spliced runs, so the JSON
	// bytes are the daemon's own.
	rows := server.AcquireHopRows()
	defer rows.Release()
	for range pairs {
		sp, err := dec.NextLent()
		if err != nil {
			return g.writeFanoutErr(ctx, w, err), 0, 0
		}
		rows.Append(g.m, sp)
	}
	if err := dec.Close(); err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	server.WriteJSON(w, http.StatusOK, server.BatchResponse{Paths: rows.Rows()})
	return http.StatusOK, int64(len(pairs)), edges
}

// writeFanoutErr answers a fan-out failure that struck before
// anything was committed, with fanoutErrCode's status and the
// daemon's error envelope (503 adds Retry-After).
func (g *Gateway) writeFanoutErr(ctx context.Context, w http.ResponseWriter, err error) int {
	code := fanoutErrCode(ctx, err)
	switch code {
	case http.StatusGatewayTimeout:
		server.WriteErr(w, code, "deadline exceeded: %v", err)
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
		server.WriteErr(w, code, "%v", err)
	default:
		server.WriteErr(w, code, "backend failure: %v", err)
	}
	return code
}

// hedgeDelay sizes the straggler timer: the configured constant, or —
// when adaptive — twice the p90 of recent shard latencies (no hedging
// until the window has enough history to mean something).
func (g *Gateway) hedgeDelay() time.Duration {
	if g.cfg.DisableHedge {
		return 0
	}
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	q := g.lat.quantile(0.9)
	if q <= 0 {
		return 0
	}
	d := 2 * q
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// pickBackend round-robins over the healthy rotation, skipping tried
// members and the except backend; nil when no candidate remains.
func (g *Gateway) pickBackend(tried map[*backend]bool, except *backend) *backend {
	n := len(g.backends)
	start := int(atomic.AddUint64(&g.rr, 1) - 1)
	for i := 0; i < n; i++ {
		b := g.backends[(start+i)%n]
		if b == except || tried[b] || !b.healthy.Load() {
			continue
		}
		return b
	}
	return nil
}

func (g *Gateway) healthyCount() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

func (g *Gateway) handleMesh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// The cluster identity with the gateway's own (minimum) limits.
	server.WriteJSON(w, http.StatusOK, server.MeshResponse{
		Spec:     g.info.Mesh,
		Seed:     g.info.Seed,
		Variant:  g.info.Variant,
		MaxBatch: g.maxBatch,
		KSample:  g.info.KSample,
		Formats:  []string{"json", "wire2"},
		Features: []string{"batch-base"},
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if g.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "draining (in flight: %d)\n", g.adm.InFlight())
		return
	}
	fmt.Fprintln(w, "ok")
}

// latWindow is a small sliding window of shard latencies feeding the
// adaptive hedge timer.
type latWindow struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // filled entries
	idx int // next write position
}

// minHedgeSamples is how much history the adaptive timer needs before
// it starts firing — hedging off a handful of samples would duplicate
// half the traffic.
const minHedgeSamples = 8

func (l *latWindow) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile of the window, 0 while the window
// is too shallow.
func (l *latWindow) quantile(q float64) time.Duration {
	l.mu.Lock()
	n := l.n
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n < minHedgeSamples {
		return 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(q * float64(n-1))
	return tmp[i]
}

// Package gateway is the horizontal face of a meshrouted cluster: one
// HTTP daemon that serves the exact same surface as a single routing
// daemon (/v1/route, /v1/batch in JSON/wire/wire2, /v1/mesh, /healthz,
// /metrics) by fanning every batch out across N identically-seeded
// backends and splicing the shards back together.
//
// Oblivious routing is what makes the splice exact rather than
// approximate: a path is a pure function of (seed, stream, s, t), and
// the daemon's "batch-base" feature lets the gateway ask backend j to
// route pairs[lo:hi] with streams lo..hi-1 — so a contiguous split by
// global stream index returns, shard by shard, precisely the paths one
// daemon would have produced for the whole batch. The gateway
// re-frames those shards into the requested encoding and the response
// is byte-identical to a single node's (the golden tests pin this).
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
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/server"
)

// maxStreamBase mirrors the daemon's cap on the batch "base" field.
const maxStreamBase = 1 << 40

// errNoBackends is the fan-out's terminal failure: every backend is
// dead, draining, or already tried for this shard.
var errNoBackends = errors.New("gateway: no healthy backends")

// Config sizes a Gateway. Backends is required; every other zero value
// picks a production-ish default.
type Config struct {
	// Backends lists the meshrouted base URLs the gateway shards over.
	// All backends must serve the same (mesh, seed, variant, path
	// format, ksample) and advertise wire2 + batch-base; New refuses a
	// mismatched or incapable member instead of serving wrong bytes.
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

	// DisableSplice turns off the zero-copy wire2 merge and forces the
	// decode/re-encode fan-in for every format — the kill switch behind
	// meshgate's -nosplice flag. json and OMP1 responses always take the
	// decode path (they must re-encode anyway).
	DisableSplice bool
	// SpliceDepth bounds how many shards past the flush cursor may be
	// fetched (and so parked) at once on the splice path: shard i starts
	// only when shard i−SpliceDepth has flushed, so a straggling early
	// shard cannot make the gateway buffer the whole batch (default 4).
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

	spliceBatches      atomic.Int64 // wire2 batches served by the splice path
	spliceBytes        atomic.Int64 // payload bytes forwarded without decode
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
	case ref.PathFormat != info.PathFormat:
		return fmt.Errorf("path format %q differs from cluster %q", info.PathFormat, ref.PathFormat)
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

// routeResponse mirrors the daemon's /v1/route reply shape.
type routeResponse struct {
	Stream uint64 `json:"stream"`
	Path   []int  `json:"path"`
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
	// One route is a one-pair shard based at the gateway's own stream
	// counter — the same replayability contract as the daemon's.
	stream := atomic.AddUint64(&g.streams, 1) - 1
	pair := []obliviousmesh.Pair{{S: obliviousmesh.NodeID(req.S), T: obliviousmesh.NodeID(req.T)}}
	sps, err := g.fetchShard(ctx, nil, pair, stream)
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	p := sps[0].Expand(g.m)
	resp := routeResponse{Stream: stream, Path: make([]int, len(p))}
	for i, n := range p {
		resp.Path[i] = int(n)
	}
	server.WriteJSON(w, http.StatusOK, resp)
	return http.StatusOK, 1, int64(p.Len())
}

// batchResponse / segBatchResponse mirror the daemon's JSON replies
// byte for byte.
type batchResponse struct {
	Paths [][]int `json:"paths"`
}

type segBatchResponse struct {
	SegPaths [][]int `json:"segpaths"`
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
		bs.req.Pairs = bs.req.Pairs[:0]
		bs.req.Base = 0
		err = json.Unmarshal(bs.body, &bs.req)
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
	if req.Base > maxStreamBase {
		server.WriteErr(w, http.StatusBadRequest, "base %d exceeds max %d", req.Base, uint64(maxStreamBase))
		return http.StatusBadRequest, 0, 0
	}
	// Stricter than one daemon by len(pairs): shard j re-posts with
	// base+lo, which must itself pass the daemon's base check.
	if req.Base+uint64(len(req.Pairs)) > maxStreamBase {
		server.WriteErr(w, http.StatusBadRequest, "base %d plus %d pairs exceeds max %d", req.Base, len(req.Pairs), uint64(maxStreamBase))
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
		server.WriteErr(w, http.StatusBadRequest, `unknown format %q (want "json", "wire" or "wire2")`, format)
		return http.StatusBadRequest, 0, 0
	}

	// wire2 responses are byte-identical to the shard payloads, so they
	// skip the decode/re-encode fan-in entirely and splice raw bytes —
	// unless the kill switch forces the decode path. json and OMP1 must
	// re-encode anyway and always decode.
	if format == "wire2" && !g.cfg.DisableSplice {
		return g.spliceBatch(ctx, w, lease, pairs, req.Base)
	}

	sps, err := g.fanout(ctx, lease, pairs, req.Base)
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	for _, sp := range sps {
		edges += int64(sp.Len())
	}
	routes = int64(len(sps))

	switch format {
	case "wire2":
		w.Header().Set("Content-Type", serial.WireSegContentType)
		w.WriteHeader(http.StatusOK)
		enc, err := serial.NewWireSegEncoder(w, g.m, len(sps))
		if err != nil {
			return http.StatusInternalServerError, routes, edges
		}
		for _, sp := range sps {
			// Trusted: every path was validated by the decoding client.
			if err := enc.EncodeTrusted(sp); err != nil {
				return http.StatusInternalServerError, routes, edges
			}
		}
		if err := enc.Close(); err != nil {
			return http.StatusInternalServerError, routes, edges
		}
	case "wire":
		w.Header().Set("Content-Type", serial.WireContentType)
		w.WriteHeader(http.StatusOK)
		enc, err := serial.NewWireEncoder(w, g.m, len(sps))
		if err != nil {
			return http.StatusInternalServerError, routes, edges
		}
		for _, sp := range sps {
			if err := enc.Encode(sp.Expand(g.m)); err != nil {
				return http.StatusInternalServerError, routes, edges
			}
		}
		if err := enc.Close(); err != nil {
			return http.StatusInternalServerError, routes, edges
		}
	default: // json
		// Rows stay nil for an empty batch: the daemon's scratch encoder
		// emits {"paths":null} there, and null it must stay.
		if g.info.PathFormat == "segments" {
			var rows [][]int
			for _, sp := range sps {
				row := make([]int, 0, 1+2*len(sp.Segs))
				row = append(row, int(sp.Start))
				for _, sg := range sp.Segs {
					row = append(row, int(sg.Dim), int(sg.Run))
				}
				rows = append(rows, row)
			}
			server.WriteJSON(w, http.StatusOK, segBatchResponse{SegPaths: rows})
		} else {
			var rows [][]int
			for _, sp := range sps {
				p := sp.Expand(g.m)
				row := make([]int, len(p))
				for j, n := range p {
					row[j] = int(n)
				}
				rows = append(rows, row)
			}
			server.WriteJSON(w, http.StatusOK, batchResponse{Paths: rows})
		}
	}
	return http.StatusOK, routes, edges
}

// writeFanoutErr maps a fan-out failure onto the daemon's status
// vocabulary: deadline → 504, an empty rotation → 503 with
// Retry-After, anything else a backend did to us → 502.
func (g *Gateway) writeFanoutErr(ctx context.Context, w http.ResponseWriter, err error) int {
	switch {
	case ctx.Err() != nil:
		server.WriteErr(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
		return http.StatusGatewayTimeout
	case errors.Is(err, errNoBackends):
		w.Header().Set("Retry-After", "1")
		server.WriteErr(w, http.StatusServiceUnavailable, "%v", err)
		return http.StatusServiceUnavailable
	default:
		server.WriteErr(w, http.StatusBadGateway, "backend failure: %v", err)
		return http.StatusBadGateway
	}
}

// fanout splits pairs contiguously across the healthy backends and
// reassembles the shards in order. Shard boundaries are provisional —
// what is pinned is that pair i routes with stream base+i, whichever
// backend ends up serving it, so membership changes mid-request cannot
// change a single byte of the response.
func (g *Gateway) fanout(ctx context.Context, lease *pairsLease, pairs []obliviousmesh.Pair, base uint64) ([]obliviousmesh.SegPath, error) {
	n := len(pairs)
	if n == 0 {
		return nil, nil
	}
	k := g.healthyCount()
	if k == 0 {
		return nil, errNoBackends
	}
	if k > n {
		k = n
	}

	out := make([]obliviousmesh.SegPath, n)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			sps, err := g.fetchShard(ctx, lease, pairs[lo:hi], base+uint64(lo))
			if err != nil {
				errs[i] = err
				return
			}
			copy(out[lo:hi], sps)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fetchShard routes one contiguous shard into decoded SegPaths — the
// fan-in for json/OMP1 responses and the -nosplice wire2 path. The
// rotation walk and hedging live in the generic fetchShardVia; decoded
// losers need no cleanup beyond the garbage collector, so discard is a
// no-op.
func (g *Gateway) fetchShard(ctx context.Context, lease *pairsLease, pairs []obliviousmesh.Pair, base uint64) ([]obliviousmesh.SegPath, error) {
	run := func(cctx context.Context, b *backend) ([]obliviousmesh.SegPath, error) {
		sps := make([]obliviousmesh.SegPath, 0, len(pairs))
		err := b.client.RouteBatchSegFuncBase(cctx, pairs, base, func(_ int, sp obliviousmesh.SegPath) error {
			sps = append(sps, sp)
			return nil
		})
		if err == nil && len(sps) != len(pairs) {
			err = fmt.Errorf("gateway: backend %s returned %d paths for %d pairs", b.url, len(sps), len(pairs))
		}
		return sps, err
	}
	return fetchShardVia(g, ctx, lease, run, func([]obliviousmesh.SegPath, bool) {})
}

// fetchShardVia routes one contiguous shard via run, walking the
// healthy rotation until a backend answers: a sub-request that fails
// past its client's transient retries demotes the backend (the prober
// re-admits it when it recovers) and the whole shard re-fans to the
// next candidate. discard receives every attempt result that is not
// the returned winner — losers of a hedge race (flagged true, they may
// hold fetched bytes worth accounting) and failed attempts alike — so
// pooled resources never leak.
func fetchShardVia[T any](g *Gateway, ctx context.Context, lease *pairsLease,
	run func(context.Context, *backend) (T, error), discard func(T, bool)) (T, error) {
	var zero T
	tried := make(map[*backend]bool)
	var lastErr error
	for range g.backends {
		b := g.pickBackend(tried, nil)
		if b == nil {
			break
		}
		v, err := collectShardVia(g, ctx, b, tried, lease, run, discard)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return zero, err
		}
		var herr *obliviousmesh.HTTPError
		if errors.As(err, &herr) && herr.StatusCode < 500 && herr.StatusCode != http.StatusTooManyRequests {
			// The cluster is identical, so another backend would reject
			// the sub-request the same way. Fail loudly.
			return zero, err
		}
		b.healthy.Store(false)
		g.refans.Add(1)
		tried[b] = true
	}
	if lastErr != nil {
		return zero, lastErr
	}
	return zero, errNoBackends
}

// collectShardVia runs one shard sub-request against b via run,
// hedging onto a second backend if b straggles past the hedge delay.
// First complete answer wins; the loser's context is canceled on
// return (the deferred cancel fires before the drainer starts
// receiving, so a straggler aborts promptly instead of running to
// completion), and its eventual result is handed to discard with the
// hedge-loser flag set.
func collectShardVia[T any](g *Gateway, ctx context.Context, b *backend, tried map[*backend]bool,
	lease *pairsLease, run func(context.Context, *backend) (T, error), discard func(T, bool)) (T, error) {
	var zero T
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		v       T
		err     error
		elapsed time.Duration
	}
	ch := make(chan result, 2)
	attempt := func(b *backend) {
		go func() {
			t0 := time.Now()
			v, err := run(cctx, b)
			ch <- result{v, err, time.Since(t0)}
		}()
	}
	lease.acquire() // attempts read the leased pairs; settled by drainLosers
	attempt(b)
	outstanding := 1

	// drainLosers consumes the attempts still in flight once the race
	// is decided, then settles this call's pairs lease — the attempt
	// goroutines read the pooled pairs, so the lease cannot drop before
	// the last of them resolves. It runs detached: the deferred cancel
	// has already aborted them, so they resolve promptly and their
	// results — which may hold pooled buffers — reach discard instead
	// of leaking. Every return path calls it exactly once.
	drainLosers := func(n int, hedgeLoser bool) {
		if n == 0 {
			lease.release()
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				discard((<-ch).v, hedgeLoser)
			}
			lease.release()
		}()
	}

	var timerC <-chan time.Time
	if d := g.hedgeDelay(); d > 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timerC = tm.C
	}

	var firstErr error
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				g.lat.observe(res.elapsed)
				drainLosers(outstanding, true)
				return res.v, nil
			}
			discard(res.v, false)
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				drainLosers(0, false) // settles the lease; nothing left to drain
				return zero, firstErr
			}
		case <-timerC:
			timerC = nil
			if b2 := g.pickBackend(tried, b); b2 != nil {
				g.hedges.Add(1)
				outstanding++
				attempt(b2)
			}
		case <-ctx.Done():
			// Attempts killed by the parent deadline are not hedge
			// losers; their bytes are wasted but not to hedging.
			drainLosers(outstanding, false)
			return zero, ctx.Err()
		}
	}
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

// meshResponse mirrors the daemon's /v1/mesh shape; the gateway
// answers with the cluster identity and its own (minimum) limits.
type meshResponse struct {
	Spec       serial.MeshSpec `json:"mesh"`
	Seed       uint64          `json:"seed"`
	Variant    string          `json:"variant"`
	MaxBatch   int             `json:"maxBatch"`
	PathFormat string          `json:"pathFormat"`
	KSample    int             `json:"ksample"`
	Formats    []string        `json:"formats"`
	Features   []string        `json:"features,omitempty"`
}

func (g *Gateway) handleMesh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	server.WriteJSON(w, http.StatusOK, meshResponse{
		Spec:       g.info.Mesh,
		Seed:       g.info.Seed,
		Variant:    g.info.Variant,
		MaxBatch:   g.maxBatch,
		PathFormat: g.info.PathFormat,
		KSample:    g.info.KSample,
		Formats:    []string{"json", "wire", "wire2"},
		Features:   []string{"batch-base"},
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

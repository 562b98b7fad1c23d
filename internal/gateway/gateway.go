// Package gateway is the horizontal face of a meshrouted cluster: one
// HTTP daemon that serves a single routing daemon's surface
// (/v1/route, /v1/batch in JSON/wire2, /v1/mesh, /healthz, /metrics)
// through the daemon's own server.Front, with an Engine that fans
// every batch out across N identically-seeded backends and splices the
// shards back together.
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
	"context"
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

// Gateway is the fan-out Engine behind a server.Front: it shards
// batches over a set of meshrouted backends. All methods are safe for
// concurrent use.
type Gateway struct {
	*server.Front
	cfg      Config
	m        *mesh.Mesh
	info     obliviousmesh.ServerInfo // the common backend identity
	maxBatch int
	backends []*backend

	rr     uint64 // round-robin fan-out cursor (atomic)
	hedges atomic.Int64
	refans atomic.Int64

	spliceBatches      atomic.Int64 // wire2 batches spliced straight into the response
	spliceBytes        atomic.Int64 // shard payload bytes spliced
	spliceParkedShards atomic.Int64 // shards that completed before their flush turn
	spliceParkedPeak   atomic.Int64 // high-water mark of simultaneously parked bytes
	hedgeWasted        atomic.Int64 // bytes fetched by hedge losers and thrown away

	lat latWindow

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the cluster and starts the health probers. Every
// configured backend must be reachable and identical in everything
// that determines path bytes; Close stops the probers.
func New(ctx context.Context, cfg Config) (*Gateway, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:  cfg,
		stop: make(chan struct{}),
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
	// The cluster identity with the gateway's own (minimum) limits.
	g.Front = server.NewFront(server.FrontConfig{
		Prefix: "meshgate",
		Mesh:   m,
		Info: server.MeshResponse{
			Spec: g.info.Mesh, Seed: g.info.Seed, Variant: g.info.Variant, KSample: g.info.KSample,
		},
		MaxInFlight:    cfg.MaxInFlight,
		MaxQueue:       cfg.MaxQueue,
		MaxBatch:       g.maxBatch,
		RequestTimeout: cfg.RequestTimeout,
	}, g)
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

// Mesh returns the cluster topology.
func (g *Gateway) Mesh() *mesh.Mesh { return g.m }

// MaxBatch returns the effective batch cap (the cluster minimum).
func (g *Gateway) MaxBatch() int { return g.maxBatch }

// Route serves one /v1/route pair: a one-pair batch based at the
// front's stream counter, gathered from the rotation like any JSON
// batch — the same replayability contract as the daemon's.
func (g *Gateway) Route(ctx context.Context, w http.ResponseWriter, p mesh.Pair, stream uint64, rows *server.HopRows) (code int, edges int64) {
	code, _, edges = g.gatherRows(ctx, w, nil, []obliviousmesh.Pair{p}, stream, rows)
	return code, edges
}

// Batch serves one /v1/batch: wire2 splices straight into the
// response, JSON gathers every shard first.
func (g *Gateway) Batch(ctx context.Context, w http.ResponseWriter, b *server.Batch, rows *server.HopRows) (code int, routes, edges int64) {
	if rows == nil {
		return g.spliceBatch(ctx, w, b)
	}
	return g.gatherRows(ctx, w, b, b.Pairs, b.Base, rows)
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

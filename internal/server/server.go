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
// The HTTP surface is one Front (front.go), shared with the sharding
// gateway: a service plugs in only its Engine. The daemon's engine,
// Server, renders every reply from the selector's run-length paths: a
// batch is selected chunk by chunk in one pipeline (pipeline.go) whose
// sink either streams the chunk as OMP2 or expands it into JSON node
// rows.
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
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
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

// Server is the daemon's Engine behind its Front: it owns the
// selector and the live edge-load tracker. All methods are safe for
// concurrent use.
type Server struct {
	*Front
	cfg  Config
	m    *mesh.Mesh
	sel  *core.Selector
	live *metrics.LiveLoads

	// chunkHook, when set (tests only, before serving), runs at the
	// top of every batch chunk, in either format, with the chunk's
	// start index.
	chunkHook func(lo int)

	kc ksampleCounters

	// pipe pools the batch pipeline's chunk buffers (*pipeBuf);
	// snapPool pools the k-sample /v1/route load snapshots (*[]int64 of
	// EdgeSpace). With the front's batch pool and the package's HopRows
	// pool they make sequential requests allocation-free at steady
	// state.
	pipe     sync.Pool
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
	s := &Server{
		cfg:  cfg,
		m:    cfg.Mesh,
		sel:  sel,
		live: metrics.NewLiveLoads(cfg.Mesh, cfg.LoadShards),
	}
	variant := "general"
	if v == core.Variant2D {
		variant = "2d"
	}
	s.Front = NewFront(FrontConfig{
		Prefix: "meshrouted",
		Mesh:   cfg.Mesh,
		Info: MeshResponse{
			Spec: serial.Spec(cfg.Mesh), Seed: cfg.Seed, Variant: variant, KSample: cfg.KSample,
		},
		MaxInFlight:    cfg.MaxInFlight,
		MaxQueue:       cfg.MaxQueue,
		MaxBatch:       cfg.MaxBatch,
		RequestTimeout: cfg.RequestTimeout,
	}, s)
	return s, nil
}

// Live exposes the edge-load tracker (read-mostly: Snapshot/Max).
func (s *Server) Live() *metrics.LiveLoads { return s.live }

// Mesh returns the served topology.
func (s *Server) Mesh() *mesh.Mesh { return s.m }

// Route serves one /v1/route pair. A sampling server scores the
// candidates against the tracker as it stands right now; the snapshot
// buffer is pooled, as one EdgeSpace vector per request would be
// 16 MiB at side 1024. At k ≤ 1 the snapshot stays nil and KSegPath is
// exactly SegPath.
func (s *Server) Route(_ context.Context, _ http.ResponseWriter, p mesh.Pair, stream uint64, rows *HopRows) (code int, edges int64) {
	var buf *[]int64
	var snap []int64
	if s.cfg.KSample > 1 {
		buf = s.getLoadSnap()
		snap = s.live.SnapshotInto(*buf)
	}
	sp, _, ks := s.sel.KSegPath(p.S, p.T, stream, snap)
	if buf != nil {
		s.putLoadSnap(buf)
		s.kc.add(ks)
	}
	s.live.AddSegPath(s.m, stream, sp)
	rows.Append(s.m, sp)
	return http.StatusOK, int64(sp.Len())
}

// Batch serves one /v1/batch through the daemon's one batch loop
// (pipeline.go), with the OMP2 sink or the JSON row sink.
func (s *Server) Batch(ctx context.Context, w http.ResponseWriter, b *Batch, rows *HopRows) (code int, routes, edges int64) {
	if rows == nil {
		return s.batchWire2(ctx, w, b.Pairs, b.Base)
	}
	return s.batchRows(ctx, w, b.Pairs, b.Base, rows)
}

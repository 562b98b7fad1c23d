// Command meshrouted serves oblivious path selection (algorithm H) as
// a network service: POST /v1/route for single pairs, POST /v1/batch
// for bulk routing (JSON or the compact binary wire format), GET
// /healthz for liveness, and GET /metrics for a text exposition of
// live edge loads, the routing-table footprint, and request counters.
//
// Usage:
//
//	meshrouted [-addr :8732] [-d 2] [-side 32] [-torus] [-seed 1]
//	           [-max-inflight 0] [-max-queue 0] [-max-batch 65536]
//	           [-workers 4] [-timeout 10s] [-drain-timeout 30s]
//	           [-pathfmt hops] [-chainsource table]
//	           [-ksample 1] [-pprof]
//
// -pprof mounts net/http/pprof under /debug/pprof/ on this server's
// mux (never the global one); it is off by default and should stay off
// on untrusted networks.
//
// -ksample k > 1 switches the daemon to semi-oblivious selection: each
// packet draws k independent algorithm-H candidate paths and commits
// the one least loaded under a snapshot of the live edge-load tracker
// (snapshots refresh per batch chunk). /metrics grows a
// meshrouted_ksample_* section, and /v1/mesh reports the configured k.
// k = 1 (the default) serves pure algorithm H.
//
// -pathfmt selects the JSON representation of /v1/batch replies:
// "hops" (node-id arrays, the default) or "segments" (flat run-length
// records [start, dim0, run0, ...], typically ~8x smaller). The binary
// wire formats are negotiated per request (?format=wire or wire2)
// regardless of this flag.
//
// The daemon prints "listening on http://<host:port>" once the socket
// is bound (use -addr :0 to pick a free port and read it from that
// line). On SIGINT/SIGTERM it drains: /healthz flips to 503, new
// traffic is shed, in-flight requests run to completion (bounded by
// -drain-timeout), then the process exits 0.
//
// Because algorithm H is oblivious, the daemon is stateless with
// respect to routing: any replica with the same -seed selects
// byte-identical paths for the same batch, so instances can be
// load-balanced freely and results replayed offline. (-ksample > 1
// trades exactly this away: selection then also depends on the live
// load history, so replicas agree only while their traffic does.)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"obliviousmesh/internal/cli"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed flag set.
type config struct {
	addr         string
	d, side      int
	torus        bool
	seed         uint64
	maxInFlight  int
	maxQueue     int
	maxBatch     int
	workers      int
	timeout      time.Duration
	drainTimeout time.Duration
	pathFmt      string
	chainSource  string
	ksample      int
	pprof        bool
}

// run is the testable body of the daemon: parse flags, bind, serve
// until ctx is cancelled (the signal handler in main), then drain. It
// returns the process exit code (0 clean shutdown, 1 runtime failure,
// 2 usage error). Every flag-validation failure prints a one-line
// error on stderr and exits nonzero.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshrouted", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8732", "listen address (use :0 for a random free port)")
	fs.IntVar(&cfg.d, "d", 2, "mesh dimension")
	fs.IntVar(&cfg.side, "side", 32, "mesh side (power of two for the paper-exact construction)")
	fs.BoolVar(&cfg.torus, "torus", false, "use a torus instead of an open mesh")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed (replicas with equal seeds route identically)")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 0, "max concurrently executing requests (0 = 2*GOMAXPROCS)")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "max queued requests before shedding with 429 (0 = 4*max-inflight)")
	fs.IntVar(&cfg.maxBatch, "max-batch", 0, "max pairs per /v1/batch request (0 = default)")
	fs.IntVar(&cfg.workers, "workers", 0, "path-selection workers per batch request (0 = default)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-request deadline (0 = default)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	fs.StringVar(&cfg.pathFmt, "pathfmt", "hops", "JSON path representation for /v1/batch: \"hops\" (node-id arrays) or \"segments\" (run-length records)")
	fs.StringVar(&cfg.chainSource, "chainsource", "table", `chain backend: "table" (compiled routing table) or "none" (recompute per packet)`)
	fs.IntVar(&cfg.ksample, "ksample", 1, "semi-oblivious candidates per packet: draw k algorithm-H paths, commit the least live-loaded (1 = pure algorithm H)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; enable only on trusted networks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "meshrouted: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if err := validate(cfg); err != nil {
		fmt.Fprintf(stderr, "meshrouted: %v\n", err)
		return 2
	}
	if err := serve(ctx, cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "meshrouted: %v\n", err)
		return 1
	}
	return 0
}

// validate rejects flag combinations before any socket is bound, so
// misconfiguration is a fast one-line failure rather than a daemon
// that limps along with nonsense limits.
func validate(cfg config) error {
	switch {
	case cfg.d < 1:
		return fmt.Errorf("-d must be >= 1 (got %d)", cfg.d)
	case cfg.side < 1:
		return fmt.Errorf("-side must be >= 1 (got %d)", cfg.side)
	case cfg.maxInFlight < 0:
		return fmt.Errorf("-max-inflight must be >= 0 (got %d)", cfg.maxInFlight)
	case cfg.maxQueue < 0:
		return fmt.Errorf("-max-queue must be >= 0 (got %d)", cfg.maxQueue)
	case cfg.maxBatch < 0:
		return fmt.Errorf("-max-batch must be >= 0 (got %d)", cfg.maxBatch)
	case cfg.workers < 0:
		return fmt.Errorf("-workers must be >= 0 (got %d)", cfg.workers)
	case cfg.timeout < 0:
		return fmt.Errorf("-timeout must be >= 0 (got %v)", cfg.timeout)
	case cfg.drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be > 0 (got %v)", cfg.drainTimeout)
	case cfg.pathFmt != "hops" && cfg.pathFmt != "segments":
		return fmt.Errorf(`-pathfmt must be "hops" or "segments" (got %q)`, cfg.pathFmt)
	case cfg.ksample < 1:
		return fmt.Errorf("-ksample must be >= 1 (got %d)", cfg.ksample)
	}
	if _, err := core.ParseChainSource(cfg.chainSource); err != nil {
		return fmt.Errorf("-chainsource: %w", err)
	}
	return nil
}

// serve binds the listener, announces the resolved address, serves
// until ctx ends, then runs the drain sequence: shed new traffic,
// let in-flight requests finish, shut the listener down.
func serve(ctx context.Context, cfg config, stdout io.Writer) error {
	m, err := cli.BuildMesh(cfg.d, cfg.side, cfg.torus)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Mesh:           m,
		Seed:           cfg.seed,
		ChainSource:    cfg.chainSource,
		MaxInFlight:    cfg.maxInFlight,
		MaxQueue:       cfg.maxQueue,
		MaxBatch:       cfg.maxBatch,
		BatchWorkers:   cfg.workers,
		RequestTimeout: cfg.timeout,
		PathFormat:     cfg.pathFmt,
		KSample:        cfg.ksample,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if cfg.pprof {
		// Mux-scoped, opt-in profiling: the pprof handlers are mounted on
		// a wrapper mux rather than http.DefaultServeMux, so nothing else
		// registered in the process leaks into this server and the
		// routes exist only when -pprof was given (otherwise the service
		// mux 404s /debug/pprof/ like any unknown path).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	hs := cli.NewHTTPServer(handler)
	fmt.Fprintf(stdout, "meshrouted: %v seed=%d listening on http://%s\n",
		m, cfg.seed, ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}

	// Drain sequence (DESIGN.md §10): flip the draining flag first so
	// /healthz turns 503 and load balancers stop sending traffic, then
	// give in-flight requests up to drain-timeout to complete.
	srv.Drain()
	fmt.Fprintf(stdout, "meshrouted: draining (in flight: %d)\n", srv.Stats().InFlight())
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	err = hs.Shutdown(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("drain timed out after %v with requests still in flight", cfg.drainTimeout)
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err == nil {
		st := srv.Stats()
		fmt.Fprintf(stdout, "meshrouted: drained cleanly (%d requests served, %d routes, %d shed)\n",
			st.Requests(), st.Routes, st.Shed)
	}
	return err
}

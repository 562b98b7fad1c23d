// Command meshgate fronts a fleet of meshrouted replicas as one
// daemon: it serves the identical HTTP surface (POST /v1/route, POST
// /v1/batch in JSON or either binary wire format, GET /v1/mesh, GET
// /healthz, GET /metrics) and shards each batch across the backends by
// contiguous global stream index. Because path selection is oblivious
// — a path is a pure function of (seed, stream, source, target) — the
// spliced response is byte-identical to what any single replica would
// have served for the whole batch.
//
// Usage:
//
//	meshgate -backends http://h1:8732,http://h2:8732 [-addr :8733]
//	         [-max-inflight 0] [-max-queue 0] [-max-batch 0]
//	         [-timeout 30s] [-backend-timeout 10s] [-backend-retries 1]
//	         [-hedge-after 0] [-nohedge] [-probe-interval 500ms]
//	         [-nosplice] [-splice-depth 4] [-drain-timeout 30s]
//
// At startup every backend's /v1/mesh identity is checked: topology,
// seed, variant, path format and ksample must agree, and each member
// must speak wire2 and the batch-base sharding extension — a
// mismatched fleet is a startup error, never silently wrong bytes.
// The advertised batch cap is the cluster minimum, so any shard can
// re-fan whole onto a lone survivor.
//
// Membership is health-gated: each backend's /healthz is probed every
// -probe-interval, and a member that dies or drains mid-request has
// its shard re-fanned to a survivor — the response bytes do not
// change, because the streams don't. A shard straggling past
// -hedge-after (or, by default, an adaptive latency quantile) is
// duplicated onto a second backend and the first answer wins;
// -nohedge disables that. GET /metrics merges every member's
// exposition into per-backend up/load gauges plus cluster totals.
//
// wire2 batches are merged by zero-copy splice: each shard's verified
// payload bytes are forwarded without decoding, streaming shard i to
// the client as soon as shards 0..i-1 have flushed, with at most
// -splice-depth shards fetched past the flush cursor. -nosplice is
// the kill switch back to the decode/re-encode fan-in (identical
// bytes, more memory, whole-batch latency before the first byte).
//
// The daemon prints "listening on http://<host:port>" once bound and
// drains on SIGINT/SIGTERM exactly like meshrouted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"obliviousmesh/internal/cli"
	"obliviousmesh/internal/gateway"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed flag set.
type config struct {
	addr           string
	backends       string
	maxInFlight    int
	maxQueue       int
	maxBatch       int
	timeout        time.Duration
	backendTimeout time.Duration
	backendRetries int
	hedgeAfter     time.Duration
	noHedge        bool
	probeInterval  time.Duration
	noSplice       bool
	spliceDepth    int
	drainTimeout   time.Duration
}

// run is the testable body of the daemon: parse flags, validate the
// fleet, bind, serve until ctx is cancelled, then drain. It returns
// the process exit code (0 clean shutdown, 1 runtime failure, 2 usage
// error).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8733", "listen address (use :0 for a random free port)")
	fs.StringVar(&cfg.backends, "backends", "", "comma-separated meshrouted base URLs to shard over (required)")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 0, "max concurrently executing requests (0 = 2*GOMAXPROCS)")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "max queued requests before shedding with 429 (0 = 4*max-inflight)")
	fs.IntVar(&cfg.maxBatch, "max-batch", 0, "max pairs per /v1/batch request (0 = cluster minimum)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-request deadline at the gateway (0 = default 30s)")
	fs.DurationVar(&cfg.backendTimeout, "backend-timeout", 0, "deadline per backend sub-request, retries included (0 = default 10s)")
	fs.IntVar(&cfg.backendRetries, "backend-retries", 1, "transient retries per backend before demoting it and re-fanning the shard (-1 disables)")
	fs.DurationVar(&cfg.hedgeAfter, "hedge-after", 0, "duplicate a straggling shard onto a second backend after this long (0 = adaptive from recent latencies)")
	fs.BoolVar(&cfg.noHedge, "nohedge", false, "disable hedged shard retries entirely")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", 500*time.Millisecond, "backend /healthz probe cadence")
	fs.BoolVar(&cfg.noSplice, "nosplice", false, "disable the zero-copy wire2 splice and decode/re-encode every batch")
	fs.IntVar(&cfg.spliceDepth, "splice-depth", 0, "max shards fetched past the splice flush cursor (0 = default 4)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "meshgate: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if err := validate(cfg); err != nil {
		fmt.Fprintf(stderr, "meshgate: %v\n", err)
		return 2
	}
	if err := serve(ctx, cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "meshgate: %v\n", err)
		return 1
	}
	return 0
}

// backendList splits and trims the -backends flag.
func backendList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// validate rejects flag combinations before any socket is bound or
// backend is dialed.
func validate(cfg config) error {
	switch {
	case len(backendList(cfg.backends)) == 0:
		return errors.New("-backends is required (comma-separated meshrouted base URLs)")
	case cfg.maxInFlight < 0:
		return fmt.Errorf("-max-inflight must be >= 0 (got %d)", cfg.maxInFlight)
	case cfg.maxQueue < 0:
		return fmt.Errorf("-max-queue must be >= 0 (got %d)", cfg.maxQueue)
	case cfg.maxBatch < 0:
		return fmt.Errorf("-max-batch must be >= 0 (got %d)", cfg.maxBatch)
	case cfg.timeout < 0:
		return fmt.Errorf("-timeout must be >= 0 (got %v)", cfg.timeout)
	case cfg.backendTimeout < 0:
		return fmt.Errorf("-backend-timeout must be >= 0 (got %v)", cfg.backendTimeout)
	case cfg.hedgeAfter < 0:
		return fmt.Errorf("-hedge-after must be >= 0 (got %v)", cfg.hedgeAfter)
	case cfg.probeInterval <= 0:
		return fmt.Errorf("-probe-interval must be > 0 (got %v)", cfg.probeInterval)
	case cfg.spliceDepth < 0:
		return fmt.Errorf("-splice-depth must be >= 0 (got %d)", cfg.spliceDepth)
	case cfg.drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be > 0 (got %v)", cfg.drainTimeout)
	}
	return nil
}

// serve validates the fleet, binds the listener, announces the
// resolved address, serves until ctx ends, then drains.
func serve(ctx context.Context, cfg config, stdout io.Writer) error {
	g, err := gateway.New(ctx, gateway.Config{
		Backends:       backendList(cfg.backends),
		MaxInFlight:    cfg.maxInFlight,
		MaxQueue:       cfg.maxQueue,
		MaxBatch:       cfg.maxBatch,
		RequestTimeout: cfg.timeout,
		BackendTimeout: cfg.backendTimeout,
		BackendRetries: cfg.backendRetries,
		HedgeAfter:     cfg.hedgeAfter,
		DisableHedge:   cfg.noHedge,
		ProbeInterval:  cfg.probeInterval,
		DisableSplice:  cfg.noSplice,
		SpliceDepth:    cfg.spliceDepth,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := cli.NewHTTPServer(g.Handler())
	fmt.Fprintf(stdout, "meshgate: %v via %d backends, max batch %d, listening on http://%s\n",
		g.Mesh(), len(backendList(cfg.backends)), g.MaxBatch(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}

	// Same drain sequence as the daemon: flip /healthz to 503 so load
	// balancers stop sending, shed new work, let in-flight fan-outs
	// finish bounded by -drain-timeout.
	g.Drain()
	fmt.Fprintf(stdout, "meshgate: draining\n")
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
		fmt.Fprintf(stdout, "meshgate: drained cleanly\n")
	}
	return err
}

// Command meshroute routes a workload (or a single pair) on a mesh or
// torus with a chosen algorithm and reports congestion, dilation,
// stretch, the C* lower bound and (optionally) the simulated delivery
// time, an edge-load heatmap, a paper-conformance check of every
// selected path, and a JSON export of the run.
//
// Usage:
//
//	meshroute [-d 2] [-side 32] [-torus] [-algo H] [-workload permutation]
//	          [-seed 1] [-simulate] [-delay 0] [-workers 0] [-check]
//	          [-pair "x1,y1:x2,y2"] [-l 8] [-heatmap] [-save run.json]
//	          [-pathfmt hops] [-chainsource table]
//	          [-ksample 1] [-cpuprofile p.out] [-memprofile m.out] [-trace t.out]
//
// Algorithms: H, H-general, access-tree, dim-order, rand-dim-order,
// rand-monotone, valiant, offline.
// Workloads: permutation, transpose, bit-reversal, tornado,
// nearest-neighbor, local-exchange, adversarial, bit-complement,
// shuffle, edge-to-edge, hot-spot.
//
// -check verifies every selected path against the paper's invariants
// (stretch bound, bitonic chain shape, waypoint membership, random-bit
// budget — see DESIGN.md §8) and exits non-zero on any violation,
// printing a replayable witness for each.
//
// -pathfmt segments routes through the run-length engine (DESIGN.md
// §11): paths are selected, evaluated, checked, and heatmapped as
// (start, dim, run) segments and only expanded to node lists when a
// hop-level consumer (-save, -simulate) needs them. The report is
// identical to -pathfmt hops; only the representation — and the
// allocation bill — changes. Core selectors only (H, H-general,
// access-tree).
//
// -ksample k > 1 (with -live, core selectors only) routes
// semi-obliviously: each packet draws k independent algorithm-H
// candidates and commits the one least loaded under a per-epoch
// snapshot of the live tracker. The run stays reproducible for any
// -workers value; a milestone k-sample summary reports how often a
// re-draw beat the pure-H path.
//
// -cpuprofile, -memprofile and -trace write pprof/runtime-trace
// artifacts for the run, so hot-path regressions can be diagnosed
// (`go tool pprof`, `go tool trace`) without editing code.
// -chainsource picks the chain backend: "table" (the compiled routing
// table of DESIGN.md §12, the default) or "none" (recompute per packet,
// the ablation). Both select byte-identical paths.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
	"sync/atomic"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/adaptive"
	"obliviousmesh/internal/baseline"
	"obliviousmesh/internal/cli"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/hotpotato"
	"obliviousmesh/internal/invariant"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/sim"
	"obliviousmesh/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed flag set.
type config struct {
	d, side     int
	torus       bool
	algoName    string
	wlName      string
	seed        uint64
	simulate    bool
	maxDelay    int
	workers     int
	pair        string
	l           int
	heatmap     bool
	live        bool
	check       bool
	pathFmt     string
	save        string
	chainSource string
	ksample     int
	cpuProfile  string
	memProfile  string
	traceFile   string
}

// run is the testable body of the command: parse args, route, report.
// It returns the process exit code (0 ok, 1 failure or invariant
// violations, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshroute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.IntVar(&cfg.d, "d", 2, "mesh dimension")
	fs.IntVar(&cfg.side, "side", 32, "mesh side (power of two for the paper-exact construction)")
	fs.BoolVar(&cfg.torus, "torus", false, "use a torus instead of an open mesh")
	fs.StringVar(&cfg.algoName, "algo", "H", "routing algorithm")
	fs.StringVar(&cfg.wlName, "workload", "permutation", "workload")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	fs.BoolVar(&cfg.simulate, "simulate", false, "run the store-and-forward simulator")
	fs.IntVar(&cfg.maxDelay, "delay", 0, "max random initial delay for the simulator (0 = none)")
	fs.IntVar(&cfg.workers, "workers", 0, "parallel path-selection workers for H (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.pair, "pair", "", "route a single pair, e.g. \"0,0:31,17\"")
	fs.IntVar(&cfg.l, "l", 8, "block side for local-exchange/adversarial")
	fs.BoolVar(&cfg.heatmap, "heatmap", false, "render the edge-load heatmap (2-D meshes)")
	fs.BoolVar(&cfg.live, "live", false, "route as streaming traffic with fused live accounting and rolling congestion/stretch reports")
	fs.BoolVar(&cfg.check, "check", false, "machine-check every selected path against the paper's invariants (DESIGN.md §8)")
	fs.StringVar(&cfg.pathFmt, "pathfmt", "hops", "path representation: \"hops\" (node lists) or \"segments\" (run-length engine; core selectors only)")
	fs.StringVar(&cfg.save, "save", "", "write the run (problem+paths+report) as JSON to this file")
	fs.StringVar(&cfg.chainSource, "chainsource", "table", `chain backend for core selectors: "table" (compiled routing table) or "none" (recompute per packet; ablation, paths are identical either way)`)
	fs.IntVar(&cfg.ksample, "ksample", 1, "semi-oblivious candidates per packet in -live mode: draw k algorithm-H paths, commit the least live-loaded (1 = pure algorithm H)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
	fs.StringVar(&cfg.traceFile, "trace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "meshroute: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if err := validate(cfg); err != nil {
		fmt.Fprintf(stderr, "meshroute: %v\n", err)
		return 2
	}
	stop, err := startDiagnostics(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "meshroute: %v\n", err)
		return 1
	}
	routeErr := route(cfg, stdout)
	if err := stop(); err != nil && routeErr == nil {
		routeErr = err
	}
	if routeErr != nil {
		fmt.Fprintf(stderr, "meshroute: %v\n", routeErr)
		return 1
	}
	return 0
}

// validate rejects out-of-range flag values before any work begins,
// so every misconfiguration is a fast one-line usage failure (exit 2)
// rather than a confusing downstream error or a silently degenerate
// run.
func validate(cfg config) error {
	switch {
	case cfg.d < 1:
		return fmt.Errorf("-d must be >= 1 (got %d)", cfg.d)
	case cfg.side < 1:
		return fmt.Errorf("-side must be >= 1 (got %d)", cfg.side)
	case cfg.maxDelay < 0:
		return fmt.Errorf("-delay must be >= 0 (got %d)", cfg.maxDelay)
	case cfg.l < 1:
		return fmt.Errorf("-l must be >= 1 (got %d)", cfg.l)
	case cfg.workers < 0:
		return fmt.Errorf("-workers must be >= 0 (got %d)", cfg.workers)
	case cfg.pathFmt != "hops" && cfg.pathFmt != "segments":
		return fmt.Errorf(`-pathfmt must be "hops" or "segments" (got %q)`, cfg.pathFmt)
	case cfg.live && cfg.pathFmt == "segments":
		return fmt.Errorf("-live streams hop paths through a session; it does not combine with -pathfmt segments")
	case cfg.ksample < 1:
		return fmt.Errorf("-ksample must be >= 1 (got %d)", cfg.ksample)
	case cfg.ksample > 1 && !cfg.live:
		return fmt.Errorf("-ksample %d scores candidates against live loads; it requires -live", cfg.ksample)
	case cfg.ksample > 1 && cfg.pair != "":
		return fmt.Errorf("-ksample needs a workload to build congestion; it does not combine with -pair")
	}
	if _, err := core.ParseChainSource(cfg.chainSource); err != nil {
		return fmt.Errorf("-chainsource: %w", err)
	}
	return nil
}

// startDiagnostics starts the requested CPU profile and execution
// trace; the returned stop function ends them and writes the heap
// profile, covering the whole routing run so hot-path regressions can
// be diagnosed from the artifacts alone.
func startDiagnostics(cfg config) (stop func() error, err error) {
	var cpuF, traceF *os.File
	if cfg.cpuProfile != "" {
		if cpuF, err = os.Create(cfg.cpuProfile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if cfg.traceFile != "" {
		if traceF, err = os.Create(cfg.traceFile); err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, err
		}
		if err = trace.Start(traceF); err != nil {
			traceF.Close()
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				firstErr = err
			}
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cfg.memProfile != "" {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return firstErr
			}
			runtime.GC() // materialize a settled heap picture
			if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("memprofile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

func route(cfg config, out io.Writer) error {
	m, err := cli.BuildMesh(cfg.d, cfg.side, cfg.torus)
	if err != nil {
		return err
	}

	switch cfg.algoName {
	case "offline":
		if cfg.check {
			return errors.New("-check applies to algorithm H's oblivious paths, not the offline router")
		}
		if cfg.pathFmt == "segments" {
			return errors.New("-pathfmt segments needs a core selector algorithm (H, H-general, access-tree), not offline")
		}
		return runOffline(out, m, cfg.wlName, cfg.seed, cfg.l)
	case "adaptive", "hot-potato":
		if cfg.check {
			return fmt.Errorf("-check applies to path-selecting algorithms, not %s", cfg.algoName)
		}
		if cfg.pathFmt == "segments" {
			return fmt.Errorf("-pathfmt segments needs a core selector algorithm (H, H-general, access-tree), not %s", cfg.algoName)
		}
		return runHopByHop(out, m, cfg.algoName, cfg.wlName, cfg.seed, cfg.l)
	}

	src, err := core.ParseChainSource(cfg.chainSource)
	if err != nil {
		return err
	}
	algo, err := cli.BuildAlgorithmSource(cfg.algoName, m, cfg.seed, src)
	if err != nil {
		return err
	}

	// The invariant engine re-derives decision traces, so it checks
	// core selectors (H, H-general, access-tree), not the baselines.
	var checker *invariant.Engine
	named, isCore := algo.(baseline.Named)
	if cfg.check {
		if !isCore {
			return fmt.Errorf("-check needs a core selector algorithm (H, H-general, access-tree), not %s", cfg.algoName)
		}
		checker = invariant.New(named.Sel)
	}
	segments := cfg.pathFmt == "segments"
	if segments && !isCore {
		return fmt.Errorf("-pathfmt segments needs a core selector algorithm (H, H-general, access-tree), not %s", cfg.algoName)
	}
	if cfg.ksample > 1 && !isCore {
		return fmt.Errorf("-ksample needs a core selector algorithm (H, H-general, access-tree), not %s", cfg.algoName)
	}

	if cfg.pair != "" {
		var segSel *core.Selector
		if segments {
			segSel = named.Sel
		}
		return routePair(out, m, algo, checker, cfg.pair, segSel)
	}

	prob, hot, err := cli.BuildWorkload(cfg.wlName, m, cfg.seed, cfg.l, algo)
	if err != nil {
		return err
	}
	if cfg.wlName == "adversarial" {
		fmt.Fprintf(out, "adversarial pinned edge: %s\n", m.EdgeString(hot))
	}
	var paths []mesh.Path
	var sps []mesh.SegPath
	var tracker *metrics.LiveLoads
	switch {
	case cfg.ksample > 1:
		// Semi-oblivious streaming: the k-sample engine needs a selector
		// built with the candidate count (validated > 0 by NewSelector).
		opt := named.Sel.Options()
		opt.KSample = cfg.ksample
		kSel, kerr := core.NewSelector(m, opt)
		if kerr != nil {
			return kerr
		}
		paths, tracker = routeLiveK(out, m, kSel, prob.Pairs, cfg.workers, checker)
	case cfg.live:
		paths, tracker = routeLive(out, m, algo, prob.Pairs, cfg.workers, checker)
	case segments:
		// Run-length engine: select, check and account in segment form;
		// node lists are only materialized on demand (below).
		sps = make([]mesh.SegPath, len(prob.Pairs))
		var h core.Hooks
		if checker != nil {
			h.Seg = checker.SegPathObserver()
		}
		named.Sel.Select(core.Request{Pairs: prob.Pairs, Workers: cfg.workers, Segs: sps, Hooks: h})
	case isCore:
		// Core selectors route in parallel; obliviousness guarantees
		// the result is identical to the sequential order.
		paths = make([]mesh.Path, len(prob.Pairs))
		var h core.Hooks
		if checker != nil {
			h.Path = checker.PathObserver()
		}
		named.Sel.Select(core.Request{Pairs: prob.Pairs, Workers: cfg.workers, Paths: paths, Hooks: h})
	default:
		paths = baseline.SelectAll(algo, prob.Pairs)
	}

	// expand materializes hop paths lazily: in segments mode the report,
	// checker, and heatmap all work run-by-run, so only -save and
	// -simulate pay for node lists.
	expand := func() []mesh.Path {
		if paths == nil {
			paths = make([]mesh.Path, len(sps))
			for i := range sps {
				paths[i] = sps[i].Expand(m)
			}
		}
		return paths
	}

	dc := decomp.MustNew(m, cli.DecompMode(m))
	var rep metrics.Report
	if sps != nil {
		rep = metrics.EvaluateSeg(dc, prob.Pairs, sps)
	} else {
		rep = metrics.Evaluate(dc, prob.Pairs, paths)
	}
	fmt.Fprintf(out, "%v  workload=%s  N=%d  algo=%s  seed=%d\n",
		m, prob.Name, prob.N(), algo.Name(), cfg.seed)
	fmt.Fprintf(out, "congestion C      = %d\n", rep.Congestion)
	fmt.Fprintf(out, "dilation D        = %d\n", rep.Dilation)
	fmt.Fprintf(out, "max stretch       = %.2f\n", rep.MaxStretch)
	fmt.Fprintf(out, "mean stretch      = %.2f\n", rep.AvgStretch)
	fmt.Fprintf(out, "lower bound on C* = %d   (C/LB = %.2f)\n",
		rep.LowerBound, float64(rep.Congestion)/float64(rep.LowerBound))
	if sps != nil {
		var runs, hops int
		for i := range sps {
			runs += len(sps[i].Segs)
			hops += sps[i].Len()
		}
		fmt.Fprintf(out, "path format       = segments (%d runs over %d hops, %.1f hops/run)\n",
			runs, hops, float64(hops)/float64(max(runs, 1)))
	}
	if tracker != nil {
		liveC := tracker.Max()
		status := "MISMATCH vs batch recount"
		if liveC == int64(rep.Congestion) {
			status = "matches batch recount"
		}
		fmt.Fprintf(out, "live congestion   = %d   (%s, %d traversals accounted in-flight)\n",
			liveC, status, tracker.Total())
	}
	if isCore {
		if ts, ok := named.Sel.RouteTableStats(); ok {
			fmt.Fprintf(out, "route table       = %s\n", ts)
		}
	}
	if cfg.heatmap {
		loads := metrics.EdgeLoads(m, paths)
		if sps != nil {
			loads = metrics.EdgeLoadsSeg(m, sps)
		}
		fmt.Fprint(out, metrics.LoadHeatmap(m, loads))
	}
	if cfg.save != "" {
		if err := saveRun(cfg.save, prob, algo.Name(), cfg.seed, expand(), &rep); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		fmt.Fprintf(out, "run saved to %s\n", cfg.save)
	}
	if cfg.simulate {
		paths := expand()
		r := sim.RunOpts(m, paths, sim.Options{
			Discipline: sim.FurthestToGo,
			Delays:     sim.UniformDelays(len(paths), cfg.maxDelay, cfg.seed),
		})
		fmt.Fprintf(out, "makespan          = %d   (C+D = %d, ratio %.2f)\n",
			r.Makespan, rep.Congestion+rep.Dilation,
			float64(r.Makespan)/float64(rep.Congestion+rep.Dilation))
		fmt.Fprintf(out, "avg latency       = %.1f, max queue = %d\n", r.AvgLatency, r.MaxQueue)
	}
	if checker != nil {
		if tracker != nil {
			checker.CheckLiveAgreement(tracker, paths)
		}
		return reportChecks(out, m, checker)
	}
	return nil
}

// routePair routes and prints a single source→target path; with a
// checker attached it also runs the full invariant suite on it (stream
// 0, the same stream Violation.Replay reproduces). A non-nil segSel
// selects and prints the run-length form instead of the node list.
func routePair(out io.Writer, m *mesh.Mesh, algo baseline.PathSelector, checker *invariant.Engine, pair string, segSel *core.Selector) error {
	sc, tc, err := cli.ParsePair(pair, m)
	if err != nil {
		return err
	}
	s, t := m.Node(sc), m.Node(tc)
	if segSel != nil {
		sp := segSel.SegPath(s, t, 0)
		fmt.Fprintf(out, "%s segments %v -> %v (dist %d, len %d, %d runs):\n",
			algo.Name(), sc, tc, m.Dist(s, t), sp.Len(), len(sp.Segs))
		for _, sg := range sp.Segs {
			fmt.Fprintf(out, "  dim %d run %+d\n", sg.Dim, sg.Run)
		}
		if checker != nil {
			checker.CheckSegPath(s, t, 0, sp)
			return reportChecks(out, m, checker)
		}
		return nil
	}
	p := algo.Path(s, t, 0)
	fmt.Fprintf(out, "%s path %v -> %v (dist %d, len %d, stretch %.2f):\n",
		algo.Name(), sc, tc, m.Dist(s, t), p.Len(), m.Stretch(p))
	for _, n := range p {
		fmt.Fprintf(out, "  %v\n", m.CoordOf(n))
	}
	if checker != nil {
		checker.CheckPath(s, t, 0, p)
		return reportChecks(out, m, checker)
	}
	return nil
}

// reportChecks prints the invariant summary and returns an error when
// any check failed, so the process exits non-zero.
func reportChecks(out io.Writer, m *mesh.Mesh, checker *invariant.Engine) error {
	n := checker.Count()
	fmt.Fprintf(out, "invariant checks  = %d packets checked, %d violations\n", checker.Checked(), n)
	if n == 0 {
		return nil
	}
	for _, v := range checker.Violations() {
		fmt.Fprintf(out, "  VIOLATION %s\n    replay: %s\n", v, v.Replay(m))
	}
	return fmt.Errorf("%d invariant violations", n)
}

// saveRun writes the run JSON, closing the file even on encode errors.
func saveRun(path string, prob workload.Problem, algoName string, seed uint64, paths []mesh.Path, rep *metrics.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = serial.SaveRun(f, serial.Run{
		Problem: prob, Algorithm: algoName, Seed: seed,
		Paths: paths, Report: rep,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// routeLive routes the problem as streaming traffic with fused
// routing+accounting: every edge crossing lands in a sharded LiveLoads
// tracker as the path is selected, and rolling congestion/stretch
// reports print at packet milestones while routing is still underway.
// Core selectors (algorithm H and friends) stream through a concurrent
// Session — packets draw arrival-order randomness streams, exactly
// like an online deployment — while other baselines route sequentially
// with per-packet accounting. With a checker attached, every route is
// invariant-checked in flight through the session observer.
func routeLive(out io.Writer, m *mesh.Mesh, algo baseline.PathSelector, pairs []mesh.Pair, workers int, checker *invariant.Engine) ([]mesh.Path, *metrics.LiveLoads) {
	tracker := metrics.NewLiveLoads(m, 0)
	paths := make([]mesh.Path, len(pairs))
	milestone := len(pairs) / 8
	if milestone == 0 {
		milestone = 1
	}

	report := func(routed int, rep obliviousmesh.LiveReport) {
		fmt.Fprintf(out, "live: %6d/%d packets  C=%-5d stretch=%.2f  max-len=%d\n",
			routed, len(pairs), rep.Congestion, rep.WorkStretch, rep.MaxLen)
	}

	named, isCore := algo.(baseline.Named)
	if !isCore {
		// Sequential baseline: account each path as it is selected.
		var totalLen, totalDist, maxLen int64
		for i, pr := range pairs {
			p := algo.Path(pr.S, pr.T, uint64(i))
			paths[i] = p
			tracker.AddPath(m, uint64(i), p)
			totalLen += int64(p.Len())
			totalDist += int64(m.Dist(pr.S, pr.T))
			if int64(p.Len()) > maxLen {
				maxLen = int64(p.Len())
			}
			if (i+1)%milestone == 0 || i == len(pairs)-1 {
				rep := obliviousmesh.LiveReport{
					Packets: uint64(i + 1), Congestion: tracker.Max(),
					Traversals: totalLen, MaxLen: int(maxLen),
				}
				if totalDist > 0 {
					rep.WorkStretch = float64(totalLen) / float64(totalDist)
				}
				report(i+1, rep)
			}
		}
		return paths, tracker
	}

	// Online engine: concurrent routers share one session; stream ids
	// are arrival-ordered, so this run is a genuine streaming sample
	// rather than a replay of the batch stream assignment.
	sess := obliviousmesh.NewSessionLive(named.Sel, tracker)
	if checker != nil {
		sess.Observe(checker.SessionObserver())
	}
	if workers <= 0 {
		workers = 4
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	var next uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddUint64(&next, 1)) - 1
				if i >= len(pairs) {
					return
				}
				paths[i] = sess.Route(pairs[i].S, pairs[i].T)
				if done := sess.Packets(); done%uint64(milestone) == 0 {
					report(int(done), sess.Report())
				}
			}
		}()
	}
	wg.Wait()
	if len(pairs)%milestone != 0 {
		report(int(sess.Packets()), sess.Report())
	}
	return paths, tracker
}

// routeLiveK routes the problem semi-obliviously (-ksample k > 1):
// packets stream in epochs of len(pairs)/8; each epoch freezes a
// snapshot of the live tracker, draws k algorithm-H candidates per
// packet with the parallel k-sample engine, commits the least-loaded
// candidate of each, and books the committed paths so the next epoch
// scores against the updated congestion. Selection within an epoch is
// a pure function of (mesh, seed, k, snapshot), so the whole run is
// reproducible for any -workers value. With a checker attached every
// committed path is invariant-checked under its candidate's stream
// (core.KSampleStream), the stream a replay must use.
func routeLiveK(out io.Writer, m *mesh.Mesh, sel *core.Selector, pairs []mesh.Pair, workers int, checker *invariant.Engine) ([]mesh.Path, *metrics.LiveLoads) {
	tracker := metrics.NewLiveLoads(m, 0)
	sps := make([]mesh.SegPath, len(pairs))
	epoch := len(pairs) / 8
	if epoch == 0 {
		epoch = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	hooks := core.Hooks{
		Seg: func(pkt int, _ mesh.Pair, sp mesh.SegPath, _ core.Stats) {
			tracker.AddSegPath(m, uint64(pkt), sp)
		},
	}
	if checker != nil {
		hooks.Cand = checker.KSampleObserver()
	}

	snap := make([]int64, m.EdgeSpace())
	var ks core.KStats
	var totalLen, totalDist, maxLen int64
	for lo := 0; lo < len(pairs); lo += epoch {
		hi := lo + epoch
		if hi > len(pairs) {
			hi = len(pairs)
		}
		tracker.SnapshotInto(snap)
		_, eks := sel.Select(core.Request{Pairs: pairs[lo:hi], Base: uint64(lo), Workers: workers, Snapshot: snap, Segs: sps[lo:hi], Hooks: hooks})
		ks.Merge(eks)
		for i := lo; i < hi; i++ {
			l := int64(sps[i].Len())
			totalLen += l
			totalDist += int64(m.Dist(pairs[i].S, pairs[i].T))
			if l > maxLen {
				maxLen = l
			}
		}
		stretch := 0.0
		if totalDist > 0 {
			stretch = float64(totalLen) / float64(totalDist)
		}
		fmt.Fprintf(out, "live: %6d/%d packets  C=%-5d stretch=%.2f  max-len=%d\n",
			hi, len(pairs), tracker.Max(), stretch, maxLen)
	}
	k := sel.Options().KSample
	fmt.Fprintf(out, "ksample: k=%d  candidates=%d  redraw-wins=%d (%.1f%%)  avoided-score=%d\n",
		k, ks.Candidates, ks.RedrawWins,
		100*float64(ks.RedrawWins)/float64(max(len(pairs), 1)),
		ks.FirstScoreSum-ks.CommitScoreSum)

	paths := make([]mesh.Path, len(sps))
	for i := range sps {
		paths[i] = sps[i].Expand(m)
	}
	return paths, tracker
}

// runHopByHop handles the routers that decide hop-by-hop at delivery
// time (no path selection): buffered minimal adaptive and bufferless
// hot-potato.
func runHopByHop(out io.Writer, m *mesh.Mesh, algoName, wlName string, seed uint64, l int) error {
	prob, _, err := cli.BuildWorkload(wlName, m, seed, l, baseline.DimOrder{M: m})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%v  workload=%s  N=%d  algo=%s  seed=%d\n",
		m, prob.Name, prob.N(), algoName, seed)
	switch algoName {
	case "adaptive":
		r := adaptive.Run(m, prob.Pairs, adaptive.LeastQueue, seed, nil)
		fmt.Fprintf(out, "makespan          = %d\n", r.Makespan)
		fmt.Fprintf(out, "avg sojourn       = %.1f, max queue = %d\n", r.AvgSojourn, r.MaxQueue)
		fmt.Fprintf(out, "total hops        = %d (minimal routing: equals total distance)\n", r.TotalHops)
	case "hot-potato":
		r := hotpotato.Run(m, prob.Pairs, seed)
		fmt.Fprintf(out, "makespan          = %d\n", r.Makespan)
		fmt.Fprintf(out, "avg latency       = %.1f\n", r.AvgLatency)
		fmt.Fprintf(out, "total hops        = %d (of which %d deflections)\n", r.TotalHops, r.Deflections)
	}
	return nil
}

func runOffline(out io.Writer, m *mesh.Mesh, wlName string, seed uint64, l int) error {
	prob, _, err := cli.BuildWorkload(wlName, m, seed, l, baseline.DimOrder{M: m})
	if err != nil {
		return err
	}
	off := baseline.Offline{M: m}
	paths := off.Route(prob.Pairs)
	dc := decomp.MustNew(m, cli.DecompMode(m))
	rep := metrics.Evaluate(dc, prob.Pairs, paths)
	fmt.Fprintf(out, "%v  workload=%s  N=%d  algo=offline (non-oblivious)\n", m, prob.Name, prob.N())
	fmt.Fprintf(out, "congestion C      = %d\n", rep.Congestion)
	fmt.Fprintf(out, "dilation D        = %d\n", rep.Dilation)
	fmt.Fprintf(out, "max stretch       = %.2f\n", rep.MaxStretch)
	fmt.Fprintf(out, "lower bound on C* = %d\n", rep.LowerBound)
	return nil
}

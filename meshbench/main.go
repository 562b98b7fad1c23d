// Command meshbench is the repository's benchmark. It serves the real
// routing daemon (server.New → Handler()) and the real gateway
// (gateway.New over three daemons) in its own process on loopback
// listeners, drives them through the facade Client, verifies the
// answers against a local selector, and prints the end-to-end metrics
// of one workload — or, with --trace 1, the per-layer metrics of a
// separate traced run.
//
//	bash meshbench/run.sh --workload perm-batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// Everything before it is a human-readable report: every figure with
// its unit and sample count, and in traced runs the per-route ledger of
// where the time goes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"obliviousmesh/internal/metrics"
)

// setupReps is how many times a run builds the system under test;
// setup_s is the median. A host-speed probe follows every
// setupProbeEvery set-ups: set-up takes well under a second, so the
// window's probes would read the host at another time.
const (
	setupReps       = 41
	setupProbeEvery = 10
)

// setupTimes is the set-up times of one run with the probes between them.
type setupTimes struct {
	s     []float64 // seconds
	speed hostSpeed
}

func (su setupTimes) String() string {
	s := append([]float64(nil), su.s...)
	sort.Float64s(s)
	return fmt.Sprintf("set-up times: min %.4g s, median %.4g s, max %.4g s (n=%d)", s[0], median(s), s[len(s)-1], len(s))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	traceOut string
	onListen func(addr string)
	out      io.Writer
}

func main() {
	var o options
	var traceFlag int
	var watchdog time.Duration
	flag.StringVar(&o.workload, "workload", "", "workload name: perm-batch, route-hot, gateway-batch or ksample-batch")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a smoke-test size")
	flag.DurationVar(&watchdog, "watchdog", 0, "exit non-zero if the run outlives this (default 4×seconds + 60s)")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	// A traced run writes its spans next to the build output.
	o.traceOut = filepath.Join(".bench_build", "meshbench", "trace-"+o.workload+".jsonl")
	if watchdog <= 0 {
		watchdog = time.Duration(4*o.seconds*float64(time.Second)) + 60*time.Second
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "meshbench: watchdog: run exceeded %v, exiting\n", watchdog)
		os.Exit(3)
	})
	o.onListen = func(addr string) { fmt.Fprintf(os.Stderr, "meshbench: listening on %s\n", addr) }
	o.out = os.Stdout

	res, err := run(context.Background(), o)
	if err != nil {
		fatalf("%v", err)
	}
	if err := res.print(o.out); err != nil {
		fatalf("%v", err)
	}
	if !res.correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "meshbench: "+format+"\n", args...)
	os.Exit(2)
}

type metric struct {
	name, unit string
	value      float64
	samples    int  // sample count behind a percentile or rate; 0 when not a sample statistic
	na         bool // the layer is not on this workload's path: reported as 0
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

// print writes the human-readable metric lines, then the JSON line.
func (r *result) print(w io.Writer) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jm{m.reported(), m.unit}
	}
	r.printMetrics(w)
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// reported is the metric's value in the result: 0 for a layer off the
// workload's path and for a value that is not a number.
func (m metric) reported() float64 {
	if m.na || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		return 0
	}
	return m.value
}

// printMetrics writes one human-readable line per metric.
func (r *result) printMetrics(w io.Writer) {
	for _, m := range r.metrics {
		v := m.reported()
		switch {
		case m.na:
			fmt.Fprintf(w, "%-36s %14s\n", m.name, "n/a")
		case m.samples > 0:
			fmt.Fprintf(w, "%-36s %14.6g %-6s (n=%d)\n", m.name, v, m.unit, m.samples)
		default:
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, v, m.unit)
		}
	}
}

// measured is one timed window with its books.
type measured struct {
	win       *window
	st        metrics.ServerStats // daemons' counters, window delta
	ctr       counters            // scraped /metrics, window delta
	ctrAfter  counters
	admission float64 // peak admission-waiting gauge (traced window only)

	bad, badRoutes int   // requests that failed verification
	verr           error // the first verification error
	booksErr       error
}

func (m *measured) verifiedRoutes() int { return m.win.routes() - m.badRoutes }

func (m *measured) routesPerSec() float64 {
	return float64(m.verifiedRoutes()) / m.win.elapsed.Seconds()
}

func run(ctx context.Context, o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.tiny {
		w = w.tiny()
	}
	out := o.out
	if out == nil {
		out = io.Discard
	}
	fmt.Fprintf(out, "meshbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "why: %s\n", w.why)
	dur := time.Duration(o.seconds * float64(time.Second))
	in, err := makeInputs(w, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}

	pt, err := newProbeTable()
	if err != nil {
		return nil, err
	}
	defer pt.close()

	tr := newTracer()
	var su setupTimes
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	reps := setupReps
	if o.tiny {
		reps = 2
	}
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		if sys, err = startSystem(ctx, w, in.m, tr, o.onListen); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		su.s = append(su.s, time.Since(t0).Seconds())
		if i%setupProbeEvery == setupProbeEvery-1 || i == reps-1 {
			su.speed.unitNS = append(su.speed.unitNS, pt.probe(probeLen))
		}
	}
	fmt.Fprintf(out, "%s\nset-up host speed: %s\n", su, su.speed)

	d := &driver{w: w, in: in, sys: sys, tr: tr}
	if wu := d.warm(ctx); wu.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", wu.failed(), len(wu.samples))
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMiB := float64(mem.HeapInuse) / (1 << 20)

	ver, err := newVerifier(w, in)
	if err != nil {
		return nil, err
	}
	closed := func() *window { return d.closed(ctx, dur, pt) }
	first, err := measureWindow(ctx, d, ver, closed, false)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if !o.trace {
		fmt.Fprintf(out, "window host speed: %s\n", first.win.speed)
		fmt.Fprintf(out, "whole-window latency p99: %.6g ms\nas measured:\n", ms(quantile(latencies(first.win), 0.99)))
		(&result{metrics: endToEnd(first, su, heapMiB, false)}).printMetrics(out)
		res.metrics = endToEnd(first, su, heapMiB, true)
		res.tally(out, first)
		fmt.Fprintf(out, "at the reference host speed:\n")
		return res, nil
	}

	tr.on.Store(true)
	traced, err := measureWindow(ctx, d, ver, closed, true)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	windows := []*measured{first, traced}
	var open *measured
	if w.rate > 0 {
		open, err = measureWindow(ctx, d, ver, func() *window { return d.openLoop(ctx, capClients(w.clients)) }, false)
		if err != nil {
			return nil, err
		}
		windows = append(windows, open)
	}
	spans := tr.take()
	if err := writeSpans(o.traceOut, spans); err != nil {
		fmt.Fprintf(out, "spans not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "%d spans written to %s\n", len(spans), o.traceOut)
	}
	live := sys.daemons[0].Live()
	var rp replay
	if w.batch > 0 {
		rp, err = replayBatches(w, in, traced.win.captures, live)
	} else {
		rp, err = replayRoutes(in, live)
	}
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	sys.close()
	sys = nil
	runtime.GC()
	tabS, tabBytes, err := buildRouteTable(in.m)
	if err != nil {
		return nil, fmt.Errorf("routetab: %w", err)
	}
	runtime.GC()
	lr := layerReport{w: w, untraced: first, traced: traced, open: open, spans: analyzeSpans(spans), rp: rp,
		tableS: tabS, tableBytes: tabBytes}
	res.metrics = lr.metrics()
	lr.printLedger(out)
	res.tally(out, windows...)
	return res, nil
}

// tally folds the windows' failures, verification and books into the
// result and reports them.
func (r *result) tally(out io.Writer, windows ...*measured) {
	r.correct = true
	for _, m := range windows {
		r.attempted += len(m.win.samples)
		r.failed += m.win.failed() + m.bad
		fmt.Fprintf(out, "error_rate %.6g (%d failed of %d attempted)\n",
			float64(m.win.failed()+m.bad)/float64(max(len(m.win.samples), 1)), m.win.failed()+m.bad, len(m.win.samples))
		fmt.Fprintf(out, "verified %d sampled responses: %d mismatches\n", len(m.win.captures), m.bad)
		fmt.Fprintf(out, "/metrics deltas: %s\n", m.ctr)
		if m.verr != nil {
			fmt.Fprintf(out, "VERIFY FAILED: %v\n", m.verr)
			r.correct = false
		}
		if m.booksErr != nil {
			fmt.Fprintf(out, "BOOKS FAILED: %v\n", m.booksErr)
			r.correct = false
		} else {
			fmt.Fprintf(out, "books balance: client %d routes, daemons %d routes\n", m.win.routes(), m.st.Routes)
		}
		if len(m.win.captures) == 0 {
			fmt.Fprintf(out, "VERIFY FAILED: no response was sampled\n")
			r.correct = false
		}
	}
}

// measureWindow runs one timed window with /metrics snapshots and the
// daemons' counters taken around it, then verifies the sampled
// responses and checks the books.
func measureWindow(ctx context.Context, d *driver, ver *verifier, drive func() *window, sampleAdmission bool) (*measured, error) {
	before, err := d.sys.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	st0 := d.sys.stats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	if sampleAdmission {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peak = d.sys.sampleAdmission(250*time.Millisecond, stop)
		}()
	}
	win := drive()
	close(stop)
	wg.Wait()
	st1 := d.sys.stats()
	after, err := d.sys.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	m := &measured{win: win, ctr: after.sub(before), ctrAfter: after, admission: peak}
	m.st = metrics.ServerStats{
		Routes: st1.Routes - st0.Routes, Traversals: st1.Traversals - st0.Traversals,
		Shed: st1.Shed - st0.Shed, Timeouts: st1.Timeouts - st0.Timeouts,
	}
	m.bad, m.badRoutes, m.verr = ver.check(win.captures)
	m.booksErr = checkBooks(d.w, int64(win.routes()), m.st.Routes, m.ctr)
	return m, nil
}

// checkBooks requires the client's delivered routes to equal the
// daemons' Server.Stats().Routes delta. Behind the gateway the client
// must match meshgate's own books exactly, and the daemons may exceed
// them only by the work of hedge losers and re-fanned attempts.
func checkBooks(w workload, client, daemons int64, c counters) error {
	if !w.gateway {
		if client != daemons {
			return fmt.Errorf("client delivered %d routes, daemons booked %d", client, daemons)
		}
		return nil
	}
	if gw := int64(c["meshgate_routes_total"]); gw != client {
		return fmt.Errorf("client delivered %d routes, meshgate booked %d", client, gw)
	}
	if c["meshgate_hedges_total"]+c["meshgate_refans_total"] == 0 && daemons != client {
		return fmt.Errorf("client delivered %d routes, daemons booked %d without hedges or re-fans", client, daemons)
	}
	if daemons < client {
		return fmt.Errorf("client delivered %d routes, daemons booked only %d", client, daemons)
	}
	return nil
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func lateness(w *window) []int64 {
	return durations(w.samples, func(s sample) time.Duration { return s.late })
}

func latencies(w *window) []int64 {
	return durations(w.samples, func(s sample) time.Duration { return s.lat })
}

// endToEnd is what a user of the system sees on one window. With
// atRef, times are at the reference host speed: each measured time is
// divided by the host factor of the probes taken around it (the
// window's, or set-up's), each rate multiplied by it. Without, they are
// as measured. latency_p99_ms is the median of per-block p99s (see
// blockQuantile).
func endToEnd(m *measured, su setupTimes, heapMiB float64, atRef bool) []metric {
	f, fs := 1.0, 1.0
	if atRef {
		f, fs = m.win.speed.factor(), su.speed.factor()
	}
	lat := latencies(m.win)
	first := durations(m.win.samples, func(s sample) time.Duration { return s.first })
	routes := m.verifiedRoutes()
	cpuPerRoute := 0.0
	if routes > 0 {
		cpuPerRoute = float64(m.win.cpu.Nanoseconds()) / 1e3 / float64(routes)
	}
	return []metric{
		{name: "routes_per_s", unit: "1/s", value: m.routesPerSec() * f, samples: routes},
		{name: "latency_p50_ms", unit: "ms", value: ms(quantile(lat, 0.50)) / f, samples: len(lat)},
		{name: "latency_p99_ms", unit: "ms", value: ms(blockQuantile(m.win, 0.99)) / f, samples: len(lat)},
		{name: "first_path_p50_ms", unit: "ms", value: ms(quantile(first, 0.50)) / f, samples: len(first)},
		{name: "cpu_us_per_route", unit: "us", value: cpuPerRoute / f, samples: routes},
		{name: "setup_s", unit: "s", value: median(su.s) / fs, samples: len(su.s)},
		{name: "heap_inuse_mib", unit: "MiB", value: heapMiB},
	}
}

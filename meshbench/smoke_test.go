package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"obliviousmesh/internal/serial"
)

// TestMain lets TestWatchdogExit run this binary as the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv("MESHBENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's workloads to the ones
// defined here, why lines included.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmokeHygiene runs every workload at a tiny size, untraced and
// traced. Each run must verify, report exactly the metrics
// BENCHMARK.json names, close every listener it opened, and leave no
// goroutine behind.
func TestSmokeHygiene(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range b.EndToEnd {
		want[false] = append(want[false], m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		want[true] = append(want[true], m.Name+" "+m.Unit)
	}
	base := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var addrs []string
			res, err := run(context.Background(), options{
				workload: w.name, seed: 3, seconds: 0.3, trace: traced, tiny: true,
				traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
				onListen: func(a string) { addrs = append(addrs, a) },
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.correct, res.failed, res.attempted)
			}
			var got []string
			for _, m := range res.metrics {
				got = append(got, m.name+" "+m.unit)
			}
			sort.Strings(got)
			exp := append([]string(nil), want[traced]...)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace=%v reports\n  %v\nBENCHMARK.json names\n  %v", w.name, traced, got, exp)
			}
			if len(addrs) == 0 {
				t.Errorf("%s trace=%v: no listener reported", w.name, traced)
			}
			assertClosed(t, addrs)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		var sb strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Fatalf("%d goroutines left over a baseline of %d:\n%s", n, base, sb.String())
	}
}

// TestWatchdogExit runs the benchmark past its watchdog: it must exit
// non-zero without printing a result, and leave no listener open.
func TestWatchdogExit(t *testing.T) {
	cmd := exec.Command(os.Args[0], "--workload", "gateway-batch", "--tiny", "--seconds", "60", "--watchdog", "1500ms")
	cmd.Env = append(os.Environ(), "MESHBENCH_AS_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "meshbench: listening on "); ok {
			addrs = append(addrs, a)
		}
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("want exit code 3 from the watchdog, got %v", err)
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a run cut by the watchdog printed a result:\n%s", stdout.String())
	}
	if len(addrs) == 0 {
		t.Fatal("the run reported no listener")
	}
	assertClosed(t, addrs)
}

func assertClosed(t *testing.T, addrs []string) {
	t.Helper()
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s is still open", a)
		}
	}
}

// TestVerifierCatchesMismatches feeds the verifier a corrupted batch
// response, a wrong single route and an invalid k-sample path: each
// must count as a failed request.
func TestVerifierCatchesMismatches(t *testing.T) {
	for _, name := range []string{"perm-batch", "route-hot", "ksample-batch"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.tiny()
		in, err := makeInputs(w, 5, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ver, err := newVerifier(w, in)
		if err != nil {
			t.Fatal(err)
		}
		var good, bad captured
		if w.batch == 0 {
			pr := in.pairAt(0)
			good = captured{idx: 0, stream: 7, path: ver.sel.Path(pr.S, pr.T, 7)}
			bad = good
			bad.stream = 8 // the path belongs to stream 7
		} else {
			pairs := in.batches[0]
			sps, _ := ver.sel.SelectAllSeg(pairs)
			var buf bytes.Buffer
			if err := serial.EncodeWireSeg(&buf, in.m, sps); err != nil {
				t.Fatal(err)
			}
			good = captured{idx: 0, body: buf.Bytes()}
			// Swap two paths: every record stays valid on its own, but
			// the stream no longer answers its pairs.
			sps[0], sps[1] = sps[1], sps[0]
			var swapped bytes.Buffer
			if err := serial.EncodeWireSeg(&swapped, in.m, sps); err != nil {
				t.Fatal(err)
			}
			bad = captured{idx: 0, body: swapped.Bytes()}
		}
		if n, _, err := ver.check([]captured{good}); n != 0 {
			t.Errorf("%s: a correct response failed verification: %v", name, err)
		}
		if n, _, err := ver.check([]captured{bad}); n != 1 || err == nil {
			t.Errorf("%s: a wrong response passed verification", name)
		}
	}
}

// TestProbeTableSingleCycle pins what the host-speed probe relies on:
// the walk through its table is one cycle over every entry, so it never
// settles into a loop that a cache holds.
func TestProbeTableSingleCycle(t *testing.T) {
	pt, err := newProbeTable()
	if err != nil {
		t.Fatal(err)
	}
	defer pt.close()
	j, n := pt.next[0], 1
	for ; j != 0 && n <= len(pt.next); n++ {
		j = pt.next[j]
	}
	if n != len(pt.next) {
		t.Fatalf("the walk from entry 0 returns after %d steps, want %d", n, len(pt.next))
	}
	if f := (hostSpeed{}).factor(); f != 1 {
		t.Errorf("factor without probes = %v, want 1", f)
	}
}

// TestBlockQuantile: one stalled block of three does not move the
// reported p99, and a short tail joins the last block.
func TestBlockQuantile(t *testing.T) {
	w := &window{slices: []int{1000, 600, 400, 1000, 300}}
	for i, ms := range []time.Duration{1, 100, 2} {
		for j := 0; j < 1000; j++ {
			w.samples = append(w.samples, sample{lat: ms * time.Millisecond})
		}
		if i == 2 {
			for j := 0; j < 300; j++ {
				w.samples = append(w.samples, sample{lat: 3 * time.Millisecond})
			}
		}
	}
	if got := time.Duration(blockQuantile(w, 0.99)); got != 3*time.Millisecond {
		t.Errorf("blockQuantile p99 = %v, want 3ms (blocks: 1ms, 100ms, 2ms+3ms tail)", got)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// Table-driven flag-validation audit: every misconfiguration exits
// nonzero with a one-line stderr error, before any socket is bound.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		exit       int
		wantErrOut string // substring expected on stderr
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"stray positional argument", []string{"-side", "8", "stray"}, 2, "unexpected arguments"},
		{"non-numeric side", []string{"-side", "many"}, 2, "invalid value"},
		{"zero dimension", []string{"-d", "0"}, 2, "-d must be >= 1"},
		{"negative dimension", []string{"-d", "-3"}, 2, "-d must be >= 1"},
		{"zero side", []string{"-side", "0"}, 2, "-side must be >= 1"},
		{"negative max-inflight", []string{"-max-inflight", "-1"}, 2, "-max-inflight must be >= 0"},
		{"negative max-queue", []string{"-max-queue", "-5"}, 2, "-max-queue must be >= 0"},
		{"negative max-batch", []string{"-max-batch", "-1"}, 2, "-max-batch must be >= 0"},
		{"negative workers", []string{"-workers", "-2"}, 2, "-workers must be >= 0"},
		{"negative timeout", []string{"-timeout", "-1s"}, 2, "-timeout must be >= 0"},
		{"zero drain-timeout", []string{"-drain-timeout", "0s"}, 2, "-drain-timeout must be > 0"},
		{"malformed duration", []string{"-timeout", "soon"}, 2, "invalid value"},
		{"bad pathfmt", []string{"-pathfmt", "runs"}, 2, `-pathfmt must be "hops" or "segments" (got "runs")`},
		{"zero ksample", []string{"-ksample", "0"}, 2, "-ksample must be >= 1"},
		{"negative ksample", []string{"-ksample", "-3"}, 2, "-ksample must be >= 1"},
		{"bad chainsource", []string{"-chainsource", "disk"}, 2, "-chainsource"},
		{"removed chainsource cache", []string{"-chainsource", "cache"}, 2, `-chainsource: chain source "cache" was removed`},
		{"removed nochaincache flag", []string{"-nochaincache"}, 2, "flag provided but not defined: -nochaincache"},
		{"bad pprof value", []string{"-pprof=maybe"}, 2, "invalid boolean value"},
		{"removed nopipeline flag", []string{"-nopipeline"}, 2, "flag provided but not defined: -nopipeline"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var out, errOut bytes.Buffer
			got := run(context.Background(), tc.args, &out, &errOut)
			if got != tc.exit {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s",
					got, tc.exit, out.String(), errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.wantErrOut) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErrOut, errOut.String())
			}
			// One-line errors: validation failures must not dump more
			// than the message (flag package adds its own usage text
			// only for parse errors, which is fine).
			if tc.exit == 2 && strings.HasPrefix(errOut.String(), "meshrouted: ") {
				if n := strings.Count(strings.TrimRight(errOut.String(), "\n"), "\n"); n != 0 {
					t.Errorf("validation error is %d lines, want 1:\n%s", n+1, errOut.String())
				}
			}
		})
	}
}

// A bad listen address must fail at runtime (exit 1), not hang.
func TestRunBadAddress(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := run(context.Background(), []string{"-side", "4", "-addr", "256.0.0.1:bad"}, &out, &errOut); got != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", got, errOut.String())
	}
	if !strings.HasPrefix(errOut.String(), "meshrouted: ") {
		t.Errorf("runtime failure missing one-line prefix: %s", errOut.String())
	}
}

var listenLine = regexp.MustCompile(`listening on (http://[^\s]+)`)

// lockedBuf is a goroutine-safe bytes.Buffer: the daemon goroutine
// writes while the test polls for the "listening on" line.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bootDaemon runs the daemon in-process on a random port and returns
// its base URL plus a cancel-and-wait shutdown function.
func bootDaemon(t *testing.T, args ...string) (baseURL string, shutdown func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut lockedBuf
	exitC := make(chan int, 1)
	go func() {
		exitC <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errOut)
	}()

	// The "listening on" line is the port-discovery contract.
	deadline := time.Now().Add(10 * time.Second)
	for baseURL == "" && time.Now().Before(deadline) {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			baseURL = m[1]
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if baseURL == "" {
		cancel()
		<-exitC
		t.Fatalf("daemon never announced its address\nstdout: %s\nstderr: %s",
			out.String(), errOut.String())
	}
	return baseURL, func() (int, string) {
		cancel()
		select {
		case code := <-exitC:
			return code, out.String() + errOut.String()
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited after cancel")
			return -1, ""
		}
	}
}

// TestDaemonServesAndDrains boots the daemon in-process (ctx
// cancellation stands in for SIGTERM — main wires the two together
// via signal.NotifyContext), routes traffic through it, and checks
// the full drain sequence: healthz flips to 503, the process exits 0
// and reports the served totals.
func TestDaemonServesAndDrains(t *testing.T) {
	baseURL, shutdown := bootDaemon(t, "-side", "8", "-seed", "3")

	// Route a small batch through the live socket.
	blob := []byte(`{"pairs":[[0,63],[7,56],[12,51]]}`)
	resp, err := http.Post(baseURL+"/v1/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		Paths [][]int `json:"paths"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Paths) != 3 {
		t.Fatalf("batch: status %d, %d paths", resp.StatusCode, len(br.Paths))
	}

	if resp, err = http.Get(baseURL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	if resp, err = http.Get(baseURL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricsBody), `meshrouted_routes_total{endpoint="batch"} 3`) {
		t.Errorf("metrics missing batch route count:\n%s", metricsBody)
	}

	code, output := shutdown()
	if code != 0 {
		t.Fatalf("exit %d, want 0\noutput: %s", code, output)
	}
	for _, want := range []string{"draining", "drained cleanly", "1 requests served"} {
		if !strings.Contains(output, want) {
			t.Errorf("drain output missing %q:\n%s", want, output)
		}
	}
}

// A daemon booted with -pathfmt segments must advertise the format on
// /v1/mesh and answer JSON batches with run-length records whose
// endpoints match the requested pairs.
func TestDaemonPathFmtSegments(t *testing.T) {
	baseURL, shutdown := bootDaemon(t, "-side", "8", "-seed", "3", "-pathfmt", "segments")
	defer shutdown()

	resp, err := http.Get(baseURL + "/v1/mesh")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		PathFormat string `json:"pathFormat"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.PathFormat != "segments" {
		t.Fatalf("advertised pathFormat %q, want segments", info.PathFormat)
	}

	pairs := [][2]int{{0, 63}, {7, 56}}
	blob := []byte(`{"pairs":[[0,63],[7,56]]}`)
	resp, err = http.Post(baseURL+"/v1/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		SegPaths [][]int `json:"segpaths"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.SegPaths) != len(pairs) {
		t.Fatalf("batch: status %d, %d segpaths", resp.StatusCode, len(br.SegPaths))
	}
	for i, rec := range br.SegPaths {
		if len(rec) < 1 || len(rec)%2 != 1 {
			t.Fatalf("segpath %d: malformed record %v", i, rec)
		}
		if rec[0] != pairs[i][0] {
			t.Fatalf("segpath %d starts at %d, want %d", i, rec[0], pairs[i][0])
		}
	}
}

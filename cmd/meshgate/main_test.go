package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/server"
)

// Table-driven flag-validation audit: every misconfiguration exits
// nonzero with a one-line stderr error, before any socket is bound or
// backend dialed.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		exit       int
		wantErrOut string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"missing backends", []string{}, 2, "-backends is required"},
		{"blank backends", []string{"-backends", " , "}, 2, "-backends is required"},
		{"stray positional argument", []string{"-backends", "http://h:1", "stray"}, 2, "unexpected arguments"},
		{"negative max-inflight", []string{"-backends", "http://h:1", "-max-inflight", "-1"}, 2, "-max-inflight must be >= 0"},
		{"negative max-queue", []string{"-backends", "http://h:1", "-max-queue", "-5"}, 2, "-max-queue must be >= 0"},
		{"negative max-batch", []string{"-backends", "http://h:1", "-max-batch", "-1"}, 2, "-max-batch must be >= 0"},
		{"negative timeout", []string{"-backends", "http://h:1", "-timeout", "-1s"}, 2, "-timeout must be >= 0"},
		{"negative backend-timeout", []string{"-backends", "http://h:1", "-backend-timeout", "-1s"}, 2, "-backend-timeout must be >= 0"},
		{"negative hedge-after", []string{"-backends", "http://h:1", "-hedge-after", "-1ms"}, 2, "-hedge-after must be >= 0"},
		{"zero probe-interval", []string{"-backends", "http://h:1", "-probe-interval", "0s"}, 2, "-probe-interval must be > 0"},
		{"negative splice-depth", []string{"-backends", "http://h:1", "-splice-depth", "-2"}, 2, "-splice-depth must be >= 0"},
		{"removed nosplice flag", []string{"-backends", "http://h:1", "-nosplice"}, 2, "flag provided but not defined: -nosplice"},
		{"zero drain-timeout", []string{"-backends", "http://h:1", "-drain-timeout", "0s"}, 2, "-drain-timeout must be > 0"},
		{"malformed duration", []string{"-backends", "http://h:1", "-timeout", "soon"}, 2, "invalid value"},
		{"bad nohedge value", []string{"-backends", "http://h:1", "-nohedge=nah"}, 2, "invalid boolean value"},
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
		})
	}
}

// An unreachable backend must fail at runtime (exit 1) before binding.
func TestRunUnreachableBackend(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := run(context.Background(), []string{"-backends", "http://127.0.0.1:1", "-backend-timeout", "500ms"}, &out, &errOut); got != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", got, errOut.String())
	}
	if !strings.HasPrefix(errOut.String(), "meshgate: ") {
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

// bootBackend runs a meshrouted service in-process and returns its
// base URL.
func bootBackend(t *testing.T, cfg server.Config) string {
	t.Helper()
	if cfg.Mesh == nil {
		cfg.Mesh = mesh.MustSquare(2, 8)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestGatewayDaemonServesAndDrains boots two in-process backends and
// the gateway daemon body (ctx cancellation stands in for SIGTERM),
// routes a batch through the live socket, checks byte equality against
// a direct backend answer, and requires a clean drain.
func TestGatewayDaemonServesAndDrains(t *testing.T) {
	cfg := server.Config{Seed: 3}
	b0 := bootBackend(t, cfg)
	b1 := bootBackend(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut lockedBuf
	exitC := make(chan int, 1)
	go func() {
		exitC <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-backends", b0 + "," + b1,
		}, &out, &errOut)
	}()

	var baseURL string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			baseURL = m[1]
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if baseURL == "" {
		cancel()
		<-exitC
		t.Fatalf("gateway never announced its address\nstdout: %s\nstderr: %s",
			out.String(), errOut.String())
	}

	body := []byte(`{"pairs":[[0,63],[7,56],[12,51]]}`)
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/batch?format=wire2", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch on %s: status %d: %s", url, resp.StatusCode, blob)
		}
		return blob
	}
	want := post(b0)
	got := post(baseURL)
	if !bytes.Equal(got, want) {
		t.Fatal("gateway daemon bytes differ from a single backend")
	}

	resp, err := http.Get(baseURL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	cancel()
	select {
	case code := <-exitC:
		if code != 0 {
			t.Fatalf("exit %d, want 0\noutput: %s%s", code, out.String(), errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gateway never exited after cancel")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("missing drain confirmation:\n%s", out.String())
	}
}

package obliviousmesh_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/server"
)

// TestClientBaseNeedsFeature: a nonzero base against a daemon that
// does not advertise batch-base must fail up front — the old daemon
// would silently route with the wrong streams.
func TestClientBaseNeedsFeature(t *testing.T) {
	m, err := obliviousmesh.NewMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Mesh: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/mesh" {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			var mr map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
				t.Error(err)
			}
			delete(mr, "features") // impersonate a pre-base daemon
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(mr)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{HTTPClient: ts.Client()})

	var payload bytes.Buffer
	_, err = client.RouteBatchWire2Raw(context.Background(), []obliviousmesh.Pair{{S: 0, T: 9}}, 7, &payload)
	if err == nil || !strings.Contains(err.Error(), "batch-base") {
		t.Fatalf("old daemon accepted a based batch: %v", err)
	}
	if payload.Len() != 0 {
		t.Fatalf("%d payload bytes delivered by a daemon without batch-base", payload.Len())
	}
	// base 0 needs no feature and must still work.
	if _, err := client.RouteBatchWire2Raw(context.Background(), []obliviousmesh.Pair{{S: 0, T: 9}}, 0, &payload); err != nil {
		t.Fatalf("base 0 against old daemon: %v", err)
	}
}

// TestClientSegFuncBackendDiesMidStream pins the crash contract of the
// streaming decoder: when the server dies mid-path, the callback has
// seen only complete in-order paths and the call reports a non-nil
// error — never a silent short batch, never a partial path.
func TestClientSegFuncBackendDiesMidStream(t *testing.T) {
	pairs := []obliviousmesh.Pair{{S: 0, T: 9}, {S: 1, T: 8}, {S: 2, T: 7}, {S: 3, T: 6}}
	m, err := obliviousmesh.NewMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	client := maliciousService(t, func(w http.ResponseWriter) {
		// A well-formed OMP2 stream for 4 paths... that dies inside the
		// third: header, two complete paths, half a varint, reset.
		var buf bytes.Buffer
		enc, err := serial.NewWireSegEncoder(&buf, m, len(pairs))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if err := enc.Encode(obliviousmesh.SegPath{Start: obliviousmesh.NodeID(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		_, _ = w.Write(buf.Bytes())
		_, _ = w.Write([]byte{0x80}) // unfinished varint of path 2
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // kill the connection mid-body
	})

	var got []int
	err = client.RouteBatchSegFunc(context.Background(), pairs, func(i int, _ obliviousmesh.SegPath) error {
		got = append(got, i)
		return nil
	})
	if err == nil {
		t.Fatal("mid-stream death decoded cleanly")
	}
	if len(got) > 2 {
		t.Fatalf("callback saw %v — paths past the crash point", got)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("callback order %v is not the in-order prefix", got)
		}
	}
}

// TestClientRetryAfterHonored: a shed response carrying Retry-After
// must stretch the next backoff to at least the server's figure, even
// when the client's own schedule would retry almost immediately.
func TestClientRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	}))
	t.Cleanup(ts.Close)

	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient:  ts.Client(),
		BaseBackoff: time.Millisecond, // would retry in ~1ms on its own
		MaxBackoff:  2 * time.Millisecond,
	})
	start := time.Now()
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 800*time.Millisecond {
		t.Fatalf("retried after %v, before the server's Retry-After of 1s", elapsed)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
}

// TestClientObserveSeesAttempts: the per-attempt hook receives one
// sample per HTTP attempt — the failed shed and the success — with
// the outcome attached.
func TestClientObserveSeesAttempts(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	}))
	t.Cleanup(ts.Close)

	var mu sync.Mutex
	type sample struct {
		path string
		err  error
	}
	var samples []sample
	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient:  ts.Client(),
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Observe: func(path string, _ time.Duration, err error) {
			mu.Lock()
			samples = append(samples, sample{path, err})
			mu.Unlock()
		},
	})
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2 (one per attempt)", len(samples))
	}
	if samples[0].err == nil || samples[1].err != nil {
		t.Fatalf("sample outcomes (%v, %v), want (shed error, nil)", samples[0].err, samples[1].err)
	}
	if samples[0].path != "/healthz" {
		t.Fatalf("sample path %q", samples[0].path)
	}
}

// TestClientRequestTimeout: the per-call deadline cuts off a hung
// server without waiting on the caller's context.
func TestClientRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); ts.Close() })

	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient:     ts.Client(),
		MaxRetries:     -1,
		RequestTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	err := client.Health(context.Background())
	if err == nil {
		t.Fatal("hung server answered")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
}

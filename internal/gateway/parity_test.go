package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/server"
)

// frontReply is what TestFrontParity compares: status, body and
// Retry-After.
type frontReply struct {
	code       int
	body       []byte
	retryAfter string
}

func call(t *testing.T, method, url, body string) frontReply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return frontReply{resp.StatusCode, blob, resp.Header.Get("Retry-After")}
}

// TestFrontParity sends each request to a daemon and to a gateway over
// one identical daemon, with equal MaxBatch, MaxInFlight and MaxQueue,
// and requires the same status, body and Retry-After. Both services
// answer through one HTTP front, so every error shape — and a drained
// front — must match byte for byte.
func TestFrontParity(t *testing.T) {
	cfg := server.Config{Mesh: mesh.MustSquare(2, 8), Seed: 4, MaxBatch: 4, MaxInFlight: 2, MaxQueue: 8}
	ref, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(refTS.Close)
	g, gw := startGateway(t, Config{
		Backends:    []string{startBackend(t, cfg).URL},
		MaxInFlight: 2,
		MaxQueue:    8,
	})

	type row struct {
		name, method, path, body string
		code                     int
		contains                 string // a substring both bodies must carry
	}
	var rows []row
	for _, format := range []string{"json", "wire2"} {
		for _, tc := range []struct {
			body string
			pair int
		}{
			{`{"pairs":[null]}`, 0},
			{`{"pairs":[[5]]}`, 0},
			{`{"pairs":[[1,2,3]]}`, 0},
			{`{"pairs":[[1.5,2]]}`, 0},
			{`{"pairs":[[1e2,2]]}`, 0},
			{`{"pairs":[["1",2]]}`, 0},
			{`{"pairs":[[9223372036854775808,0]]}`, 0},
			{`{"pairs":[[0,1],[2,3],null]}`, 2},
		} {
			rows = append(rows, row{"malformed " + tc.body + " " + format, http.MethodPost,
				"/v1/batch?format=" + format, tc.body, http.StatusBadRequest, fmt.Sprintf("pair %d", tc.pair)})
		}
	}
	based := func(base uint64, pairs string) string {
		return fmt.Sprintf(`{"pairs":%s,"base":%d}`, pairs, base)
	}
	const max = uint64(server.MaxStreamBase)
	rows = append(rows,
		row{"out-of-range pair", http.MethodPost, "/v1/batch?format=json", `{"pairs":[[0,64]]}`, http.StatusBadRequest, "pair 0 (0,64) out of range"},
		row{"unknown format", http.MethodPost, "/v1/batch?format=bogus", `{"pairs":[[0,1]]}`, http.StatusBadRequest, "unknown format"},
		row{"retired format wire", http.MethodPost, "/v1/batch?format=wire", `{"pairs":[[0,1]]}`, http.StatusBadRequest, "unknown format"},
		row{"GET route", http.MethodGet, "/v1/route", "", http.StatusMethodNotAllowed, "POST only"},
		row{"GET batch", http.MethodGet, "/v1/batch", "", http.StatusMethodNotAllowed, "POST only"},
		row{"bad route body", http.MethodPost, "/v1/route", `{"s":`, http.StatusBadRequest, "decode request"},
		row{"out-of-range route", http.MethodPost, "/v1/route", `{"s":0,"t":64}`, http.StatusBadRequest, "out of range"},
		row{"oversized batch", http.MethodPost, "/v1/batch", `{"pairs":[[0,1],[1,2],[2,3],[3,4],[4,5]]}`, http.StatusRequestEntityTooLarge, "exceeds max batch 4"},
		row{"base max-1 with 2 pairs", http.MethodPost, "/v1/batch", based(max-1, `[[0,1],[2,3]]`), http.StatusBadRequest, "exceeds max"},
		row{"base max-2 with 2 pairs json", http.MethodPost, "/v1/batch?format=json", based(max-2, `[[0,1],[2,3]]`), http.StatusOK, `"paths"`},
		row{"base max-2 with 2 pairs wire2", http.MethodPost, "/v1/batch?format=wire2", based(max-2, `[[0,1],[2,3]]`), http.StatusOK, ""},
		row{"base 1<<64-1 with 1 pair", http.MethodPost, "/v1/batch", based(1<<64-1, `[[0,1]]`), http.StatusBadRequest, "exceeds max"},
		row{"base 1<<41", http.MethodPost, "/v1/batch", based(1<<41, `[[0,1]]`), http.StatusBadRequest, "exceeds max"},
	)
	check := func(t *testing.T, rows []row) {
		t.Helper()
		for _, r := range rows {
			want := call(t, r.method, refTS.URL+r.path, r.body)
			got := call(t, r.method, gw.URL+r.path, r.body)
			if want.code != r.code || !bytes.Contains(want.body, []byte(r.contains)) {
				t.Errorf("%s: daemon status %d %q, want %d carrying %q", r.name, want.code, want.body, r.code, r.contains)
			}
			if got.code != want.code || !bytes.Equal(got.body, want.body) || got.retryAfter != want.retryAfter {
				t.Errorf("%s: gateway %d %q Retry-After %q, daemon %d %q Retry-After %q",
					r.name, got.code, got.body, got.retryAfter, want.code, want.body, want.retryAfter)
			}
		}
	}
	check(t, rows)

	ref.Drain()
	g.Drain()
	check(t, []row{
		{"drained route", http.MethodPost, "/v1/route", `{"s":0,"t":1}`, http.StatusServiceUnavailable, "draining"},
		{"drained batch", http.MethodPost, "/v1/batch", `{"pairs":[[0,1]]}`, http.StatusServiceUnavailable, "draining"},
		{"drained healthz", http.MethodGet, "/healthz", "", http.StatusServiceUnavailable, "draining (in flight: 0)"},
	})
	if r := call(t, http.MethodPost, gw.URL+"/v1/batch", `{"pairs":[[0,1]]}`); r.retryAfter == "" {
		t.Fatal("drained gateway shed without Retry-After")
	}
}

// TestGatewayRouteTimeoutCounted: a /v1/route whose backend misses the
// gateway's deadline answers 504 and counts as a route timeout, exactly
// as the same timeout on /v1/batch counts as a batch timeout.
func TestGatewayRouteTimeoutCounted(t *testing.T) {
	srv, err := server.New(server.Config{Mesh: mesh.MustSquare(2, 8), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(release) }) // runs before slow.Close (LIFO)
	_, gw := startGateway(t, Config{
		Backends:       []string{slow.URL},
		RequestTimeout: 50 * time.Millisecond,
		DisableHedge:   true,
	})

	if r := call(t, http.MethodPost, gw.URL+"/v1/route", `{"s":0,"t":9}`); r.code != http.StatusGatewayTimeout {
		t.Fatalf("route past the deadline: status %d %q, want 504", r.code, r.body)
	}
	if r := call(t, http.MethodPost, gw.URL+"/v1/batch", `{"pairs":[[0,9]]}`); r.code != http.StatusGatewayTimeout {
		t.Fatalf("batch past the deadline: status %d %q, want 504", r.code, r.body)
	}
	metrics := call(t, http.MethodGet, gw.URL+"/metrics", "")
	for _, line := range []string{
		`meshgate_timeouts_total{endpoint="route"} 1`,
		`meshgate_timeouts_total{endpoint="batch"} 1`,
	} {
		if !bytes.Contains(metrics.body, []byte(line)) {
			t.Errorf("metrics lack %q:\n%s", line, metrics.body)
		}
	}
}

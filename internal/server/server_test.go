package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Mesh == nil {
		cfg.Mesh = mesh.MustSquare(2, 8)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestRouteEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 5})
	m := srv.Mesh()

	resp, body := postJSON(t, ts.URL+"/v1/route", routeRequest{S: 0, T: 63})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	p := make(mesh.Path, len(rr.Path))
	for i, n := range rr.Path {
		p[i] = mesh.NodeID(n)
	}
	if err := m.Validate(p, 0, 63); err != nil {
		t.Fatalf("served path invalid: %v", err)
	}

	// The stream id must reproduce the path exactly: the replayability
	// contract of the oblivious service.
	sel, err := core.NewSelector(m, core.Options{Variant: core.Variant2D, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := sel.Path(0, 63, rr.Stream)
	if len(want) != len(p) {
		t.Fatalf("replayed path differs in length: %d vs %d", len(want), len(p))
	}
	for i := range want {
		if want[i] != p[i] {
			t.Fatalf("replayed path differs at node %d", i)
		}
	}

	// Repeated identical requests draw fresh streams.
	resp2, body2 := postJSON(t, ts.URL+"/v1/route", routeRequest{S: 0, T: 63})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	var rr2 RouteResponse
	if err := json.Unmarshal(body2, &rr2); err != nil {
		t.Fatal(err)
	}
	if rr2.Stream == rr.Stream {
		t.Fatalf("stream id reused: %d", rr.Stream)
	}
}

// TestRouteKSampleSnapshotPooled pins the memory of a sampling
// /v1/route: each request scores its candidates against a load
// snapshot, and that snapshot must come from the server's buffer
// cache, not a fresh EdgeSpace vector per request (16 MiB at side
// 1024). The GC before the timed loop frees the cached buffer, so the
// loop's first request allocates one snapshot and the rest reuse it.
func TestRouteKSampleSnapshotPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation; the budget runs in the non-race suite")
	}
	m := mesh.MustSquare(2, 128)
	srv, err := New(Config{Mesh: m, Seed: 3, KSample: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	route := func(i int) {
		body := fmt.Sprintf(`{"s":%d,"t":%d}`, i%m.Size(), (i*7919+5)%m.Size())
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 8; i++ { // warm the pools
		route(i)
	}
	const n = 40
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		route(i)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
	if budget := float64(8*m.EdgeSpace()) / 8; perReq > budget {
		t.Fatalf("sampling /v1/route allocates %.0f B/request, want <= %.0f (one snapshot is %d B)",
			perReq, budget, 8*m.EdgeSpace())
	}
	t.Logf("sampling /v1/route: %.0f B/request (one snapshot is %d B)", perReq, 8*m.EdgeSpace())
}

func TestRouteEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"GET not allowed", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/route")
		}, http.StatusMethodNotAllowed},
		{"malformed body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"out of range", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(`{"s":0,"t":64}`))
		}, http.StatusBadRequest},
		{"negative node", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(`{"s":-1,"t":3}`))
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, body)
		}
	}
}

func TestBatchEndpointJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 2, BatchChunk: 7})
	m := srv.Mesh()
	var req BatchRequest
	for s := 0; s < m.Size(); s++ {
		req.Pairs = append(req.Pairs, [2]int{s, (s + 17) % m.Size()})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Paths) != len(req.Pairs) {
		t.Fatalf("%d paths for %d pairs", len(br.Paths), len(req.Pairs))
	}
	// Batch semantics: path i drawn with stream i, identical to a
	// local SelectAll on the same pairs — chunked serving included.
	sel, err := core.NewSelector(m, core.Options{Variant: core.Variant2D, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]mesh.Pair, len(req.Pairs))
	for i, pr := range req.Pairs {
		pairs[i] = mesh.Pair{S: mesh.NodeID(pr[0]), T: mesh.NodeID(pr[1])}
	}
	want, _ := sel.SelectAll(pairs)
	for i := range want {
		if len(want[i]) != len(br.Paths[i]) {
			t.Fatalf("path %d: length %d, want %d", i, len(br.Paths[i]), len(want[i]))
		}
		for j := range want[i] {
			if int(want[i][j]) != br.Paths[i][j] {
				t.Fatalf("path %d differs at node %d", i, j)
			}
		}
	}
}

// TestBatchEndpointWire pins the retired per-hop wire format (OMP1):
// ?format=wire is an unknown format, and its Accept header gets JSON
// like any other Accept value that is not wire2.
func TestBatchEndpointWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 2, BatchChunk: 5})
	req := BatchRequest{}
	for s := 0; s < 32; s++ {
		req.Pairs = append(req.Pairs, [2]int{s, 63 - s})
	}
	blob, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/batch?format=wire", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `unknown format \"wire\" (want \"json\" or \"wire2\")`; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Fatalf("?format=wire: status %d %s, want 400 %s", resp.StatusCode, body, want)
	}

	respJ, bodyJ := postJSON(t, ts.URL+"/v1/batch", req)
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("json status %d", respJ.StatusCode)
	}
	areq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(blob))
	areq.Header.Set("Accept", "application/x-obliviousmesh-paths")
	aresp, err := http.DefaultClient.Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	abody, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if ct := aresp.Header.Get("Content-Type"); aresp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("OMP1 Accept header: status %d, content type %q, want 200 JSON", aresp.StatusCode, ct)
	}
	if !bytes.Equal(abody, bodyJ) {
		t.Fatal("OMP1 Accept header: body differs from the plain JSON batch")
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Pairs: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: status %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Pairs: [][2]int{{0, 999}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range pair: status %d (%s)", resp.StatusCode, body)
	}
	// An empty batch is legal and returns an empty path set.
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: status %d (%s)", resp.StatusCode, body)
	}
}

func TestBatchDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond, BatchChunk: 1})
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Pairs: [][2]int{{0, 63}}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	// wire2: headers are already out, so the deadline truncates the
	// stream and the decoder must reject it.
	blob, _ := json.Marshal(BatchRequest{Pairs: [][2]int{{0, 63}}})
	wresp, err := http.Post(ts.URL+"/v1/batch?format=wire2", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode == http.StatusOK {
		if _, err := serial.DecodeWireSeg(wresp.Body, mesh.MustSquare(2, 8), 0); err == nil {
			t.Fatal("truncated wire2 stream decoded cleanly")
		}
	}
}

func TestMeshEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Mesh: mesh.MustSquareTorus(2, 16), Seed: 9, MaxBatch: 128})
	resp, err := http.Get(ts.URL + "/v1/mesh")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var mr MeshResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Spec.Dims) != 2 || mr.Spec.Dims[0] != 16 || !mr.Spec.Wrap {
		t.Fatalf("mesh spec %+v", mr.Spec)
	}
	if mr.Seed != 9 || mr.Variant != "2d" || mr.MaxBatch != 128 {
		t.Fatalf("mesh response %+v", mr)
	}
	rebuilt, err := mr.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Size() != 256 || !rebuilt.Wrap() {
		t.Fatalf("rebuilt mesh %v", rebuilt)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz: %d", resp.StatusCode)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz: %d %q", resp.StatusCode, body)
	}
	// New routing traffic is refused while draining.
	rresp, _ := postJSON(t, ts.URL+"/v1/route", routeRequest{S: 0, T: 1})
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("route while draining: %d", rresp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 1, TopK: 3})
	for i := 0; i < 5; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/route", routeRequest{S: i, T: 63 - i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route %d: %d", i, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Pairs: [][2]int{{0, 9}, {9, 0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`meshrouted_requests_total{endpoint="route"} 5`,
		`meshrouted_requests_total{endpoint="batch"} 1`,
		`meshrouted_routes_total{endpoint="route"} 5`,
		`meshrouted_routes_total{endpoint="batch"} 2`,
		"meshrouted_live_congestion ",
		"meshrouted_live_traversals_total ",
		"meshrouted_edge_load{rank=\"0\",",
		"meshrouted_route_table_bytes ",
		"meshrouted_admission_in_flight 0",
		"meshrouted_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// Live traversal total must equal the per-request edge accounting —
	// the fused pipeline and the request counters agree.
	st := srv.Stats()
	if st.Traversals != srv.Live().Total() {
		t.Fatalf("request-counter traversals %d != live tracker %d", st.Traversals, srv.Live().Total())
	}
	if st.Routes != 7 || st.OK != 6 {
		t.Fatalf("stats %+v", st)
	}
}

// TestChainSourceTable runs a daemon on the compiled routing table:
// served paths must match a recomputing replica byte for byte (the
// replayability contract holds across backends), and /metrics must
// expose the table footprint — only where a table exists.
func TestChainSourceTable(t *testing.T) {
	_, tts := newTestServer(t, Config{Seed: 5, ChainSource: "table"})
	_, nts := newTestServer(t, Config{Seed: 5, ChainSource: "none"})

	req := BatchRequest{Pairs: [][2]int{{0, 63}, {63, 0}, {7, 42}, {11, 11}}}
	_, tbody := postJSON(t, tts.URL+"/v1/batch", req)
	_, nbody := postJSON(t, nts.URL+"/v1/batch", req)
	if !bytes.Equal(tbody, nbody) {
		t.Fatalf("table-backed batch differs from recompute:\n%s\nvs\n%s", tbody, nbody)
	}

	mresp, err := http.Get(tts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"meshrouted_route_table_levels ",
		"meshrouted_route_table_families ",
		"meshrouted_route_table_cells ",
		"meshrouted_route_table_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table metrics missing %q:\n%s", want, text)
		}
	}
	mresp, err = http.Get(nts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(body), "meshrouted_route_table_") {
		t.Errorf("recomputing server exposes table metrics:\n%s", body)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil mesh accepted")
	}
	if _, err := New(Config{Mesh: mesh.MustSquare(2, 8), ChainSource: "lru"}); err == nil {
		t.Fatal("bad ChainSource accepted")
	}
	if _, err := New(Config{Mesh: mesh.MustSquare(2, 8), ChainSource: "cache"}); err == nil || !strings.Contains(err.Error(), `"cache"`) {
		t.Fatalf("removed ChainSource cache: error %v, want one naming it", err)
	}
	srv, err := New(Config{Mesh: mesh.MustSquare(2, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.MaxInFlight <= 0 || srv.cfg.MaxQueue <= 0 || srv.cfg.MaxBatch <= 0 ||
		srv.cfg.BatchWorkers <= 0 || srv.cfg.BatchChunk <= 0 ||
		srv.cfg.RequestTimeout <= 0 || srv.cfg.TopK <= 0 {
		t.Fatalf("defaults not filled: %+v", srv.cfg)
	}
}

func TestAdmitterQueueBounds(t *testing.T) {
	a := NewAdmitter(1, 1)
	if err := a.Admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Slot held: one waiter may queue; it must respect its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := a.Admit(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued admit: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("queued admit blocked past its deadline")
	}

	// Queue full: overflow is shed instantly.
	block := make(chan struct{})
	go func() {
		<-block
		a.Release()
	}()
	waiter := make(chan error, 1)
	go func() {
		waiter <- a.Admit(context.Background())
	}()
	// Wait for the waiter to be queued.
	for i := 0; i < 1000 && a.Waiting() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if err := a.Admit(context.Background()); err != ErrShed {
		t.Fatalf("overflow admit: %v, want ErrShed", err)
	}
	close(block)
	if err := <-waiter; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.Release()
}

func ExampleServer_metrics() {
	srv, _ := New(Config{Mesh: mesh.MustSquare(2, 4)})
	fmt.Println(srv.Stats().Requests())
	// Output: 0
}

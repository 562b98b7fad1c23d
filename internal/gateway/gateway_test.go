package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/server"
)

func startBackend(t *testing.T, cfg server.Config) *httptest.Server {
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
	return ts
}

// startGateway builds a gateway over the given backends. Unless a test
// drives membership through the prober it gets a near-inert one, so
// demotions and recoveries happen exactly when the test makes them.
func startGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func testPairs(size, stride int) [][2]int {
	pairs := make([][2]int, size)
	for s := 0; s < size; s++ {
		pairs[s] = [2]int{s, (s*stride + 5) % size}
	}
	return pairs
}

func batchBody(t *testing.T, pairs [][2]int, base uint64) []byte {
	t.Helper()
	blob, err := json.Marshal(server.BatchRequest{Pairs: pairs, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func postBatch(t *testing.T, baseURL, format string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/batch?format="+format, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob, resp.Header
}

// TestGatewayGoldenEquality is the tentpole pin: for every encoding,
// sampling regime and seed, a batch through the 3-way sharded gateway
// returns the exact bytes one daemon returns for the same request.
func TestGatewayGoldenEquality(t *testing.T) {
	formats := []string{"json", "wire", "wire2"}
	for _, k := range []int{1, 4} {
		for _, seed := range []uint64{3, 17} {
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				if k == 1 {
					// Pure oblivious selection ignores live load, so one
					// cluster serves every format; BatchChunk 7 makes the
					// shards straddle chunk boundaries on the backends.
					cfg := server.Config{Seed: seed, BatchChunk: 7}
					ref := startBackend(t, cfg)
					_, gw := startGateway(t, Config{Backends: []string{
						startBackend(t, cfg).URL,
						startBackend(t, cfg).URL,
						startBackend(t, cfg).URL,
					}})
					body := batchBody(t, testPairs(64, 29), 0)
					for _, format := range formats {
						code, want, _ := postBatch(t, ref.URL, format, body)
						if code != http.StatusOK {
							t.Fatalf("reference %s status %d", format, code)
						}
						gcode, got, _ := postBatch(t, gw.URL, format, body)
						if gcode != http.StatusOK {
							t.Fatalf("gateway %s status %d: %s", format, gcode, got)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("format %s: gateway bytes differ from single daemon (%d vs %d bytes)", format, len(got), len(want))
						}
					}
					return
				}
				// Sampling regime: equality holds when every request lands
				// on fresh replicas (all-zero congestion snapshots), so each
				// format gets a brand-new reference and cluster.
				for _, format := range formats {
					cfg := server.Config{Seed: seed, KSample: k}
					ref := startBackend(t, cfg)
					_, gw := startGateway(t, Config{Backends: []string{
						startBackend(t, cfg).URL,
						startBackend(t, cfg).URL,
						startBackend(t, cfg).URL,
					}})
					body := batchBody(t, testPairs(64, 37), 0)
					code, want, _ := postBatch(t, ref.URL, format, body)
					if code != http.StatusOK {
						t.Fatalf("reference %s status %d", format, code)
					}
					gcode, got, _ := postBatch(t, gw.URL, format, body)
					if gcode != http.StatusOK {
						t.Fatalf("gateway %s status %d: %s", format, gcode, got)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("format %s: gateway bytes differ from single daemon (%d vs %d bytes)", format, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestGatewayBaseForwarding: a based batch through the gateway equals
// the same based batch on one daemon — the gateway composes under a
// super-gateway exactly like a daemon does.
func TestGatewayBaseForwarding(t *testing.T) {
	cfg := server.Config{Seed: 9, BatchChunk: 5}
	ref := startBackend(t, cfg)
	_, gw := startGateway(t, Config{Backends: []string{
		startBackend(t, cfg).URL,
		startBackend(t, cfg).URL,
	}})
	body := batchBody(t, testPairs(33, 13), 4096)
	_, want, _ := postBatch(t, ref.URL, "wire2", body)
	code, got, _ := postBatch(t, gw.URL, "wire2", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("based batch through the gateway differs from single daemon")
	}
}

// TestGatewayEmptyBatch pins the degenerate case in every format.
func TestGatewayEmptyBatch(t *testing.T) {
	cfg := server.Config{Seed: 2}
	ref := startBackend(t, cfg)
	_, gw := startGateway(t, Config{Backends: []string{startBackend(t, cfg).URL}})
	body := batchBody(t, [][2]int{}, 0)
	for _, format := range []string{"json", "wire", "wire2"} {
		_, want, _ := postBatch(t, ref.URL, format, body)
		code, got, _ := postBatch(t, gw.URL, format, body)
		if code != http.StatusOK {
			t.Fatalf("empty %s batch status %d", format, code)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("empty %s batch: %q vs %q", format, got, want)
		}
	}
}

// TestBatchRejectsMalformedPairs: the gateway parses pairs with the
// daemon's parser, so every pair that is not exactly two integers is a
// 400 naming the pair before any shard is sent, a pair the pooled
// ingress left behind is never routed again, and every valid spelling
// returns the single daemon's bytes.
func TestBatchRejectsMalformedPairs(t *testing.T) {
	cfg := server.Config{Seed: 4}
	ref := startBackend(t, cfg)
	_, gw := startGateway(t, Config{Backends: []string{
		startBackend(t, cfg).URL,
		startBackend(t, cfg).URL,
	}})
	bad := []struct {
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
	}
	for _, format := range []string{"json", "wire", "wire2"} {
		for _, tc := range bad {
			code, body, _ := postBatch(t, gw.URL, format, []byte(tc.body))
			want := fmt.Sprintf("pair %d", tc.pair)
			if code != http.StatusBadRequest || !strings.Contains(string(body), want) {
				t.Errorf("%s %s: status %d %q, want 400 naming %q", format, tc.body, code, body, want)
			}
		}
	}

	// The stale-pair sequence against the pooled ingress.
	for i := 0; i < 4; i++ {
		if code, body, _ := postBatch(t, gw.URL, "wire2", []byte(`{"pairs":[[7,9],[11,13]]}`)); code != http.StatusOK {
			t.Fatalf("2-pair batch: status %d %s", code, body)
		}
		if code, body, _ := postBatch(t, gw.URL, "wire2", []byte(`{"pairs":[null]}`)); code != http.StatusBadRequest {
			t.Fatalf("[null] after a 2-pair batch: status %d %s, want 400", code, body)
		}
	}

	canonical := batchBody(t, [][2]int{{0, 63}, {63, 0}, {7, 42}}, 0)
	empty := batchBody(t, [][2]int{}, 0)
	good := []struct {
		body string
		want []byte
	}{
		{" {\n\t\"pairs\" : [ [ 0 ,63 ] ,\r\n[63, 0],[\t7,\n42 ] ] } \n", canonical},
		{`{"PAIRS":[[0,63],[63,0],[7,42]]}`, canonical},
		{`{"x":[null,1.5],"pairs":[[0,63],[63,0],[7,42]],"y":{"pairs":1}}`, canonical},
		{`{"pairs":null}`, empty},
		{`{"pairs":[]}`, empty},
	}
	for _, format := range []string{"json", "wire2"} {
		for _, tc := range good {
			_, want, _ := postBatch(t, ref.URL, format, tc.want)
			code, got, _ := postBatch(t, gw.URL, format, []byte(tc.body))
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s %q: status %d, response %q differs from the single daemon's %q", format, tc.body, code, got, want)
			}
		}
	}
}

// TestGatewayRouteReplay: single routes draw the gateway's own stream
// counter and replay locally, the same contract as the daemon's.
func TestGatewayRouteReplay(t *testing.T) {
	const seed = 7
	cfg := server.Config{Seed: seed}
	_, gw := startGateway(t, Config{Backends: []string{
		startBackend(t, cfg).URL,
		startBackend(t, cfg).URL,
	}})
	client := obliviousmesh.NewClient(gw.URL, obliviousmesh.ClientConfig{})
	ctx := context.Background()
	m, err := client.Mesh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s := obliviousmesh.NodeID(i * 9 % m.Size())
		d := obliviousmesh.NodeID((i*23 + 7) % m.Size())
		p, stream, err := client.Route(ctx, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if stream != uint64(i) {
			t.Fatalf("route %d drew stream %d", i, stream)
		}
		want := local.Path(s, d, stream)
		if len(p) != len(want) {
			t.Fatalf("route %d: path length %d, want %d", i, len(p), len(want))
		}
		for j := range p {
			if p[j] != want[j] {
				t.Fatalf("route %d hop %d: %d != %d", i, j, p[j], want[j])
			}
		}
	}
}

// TestGatewayBackendDeath: SIGKILL-equivalent (socket slammed shut) on
// one member mid-rotation. Its shard re-fans to a survivor and the
// response is still byte-identical — the split is provisional, the
// streams are not.
func TestGatewayBackendDeath(t *testing.T) {
	cfg := server.Config{Seed: 5}
	ref := startBackend(t, cfg)
	dead := startBackend(t, cfg)
	g, gw := startGateway(t, Config{Backends: []string{
		startBackend(t, cfg).URL,
		dead.URL,
		startBackend(t, cfg).URL,
	}})
	dead.Close()

	body := batchBody(t, testPairs(64, 29), 0)
	_, want, _ := postBatch(t, ref.URL, "wire2", body)
	code, got, _ := postBatch(t, gw.URL, "wire2", body)
	if code != http.StatusOK {
		t.Fatalf("batch with a dead member: status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-fanned batch differs from single daemon")
	}
	if n := g.refans.Load(); n < 1 {
		t.Fatalf("refans_total %d after a dead member served a shard", n)
	}
	if g.backends[1].healthy.Load() {
		t.Fatal("dead backend still marked healthy after demotion")
	}
	// The rotation is now 2 wide; the next batch must not touch the
	// demoted member at all (no further re-fans).
	before := g.refans.Load()
	code, got, _ = postBatch(t, gw.URL, "wire2", body)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-demotion batch: status %d, equal=%v", code, bytes.Equal(got, want))
	}
	if n := g.refans.Load(); n != before {
		t.Fatalf("refans_total moved %d -> %d on a healthy rotation", before, n)
	}
}

// TestGatewayHedging: a straggling shard is duplicated after
// HedgeAfter and the fast copy's answer wins, well before the
// straggler would have answered.
func TestGatewayHedging(t *testing.T) {
	cfg := server.Config{Mesh: mesh.MustSquare(2, 8), Seed: 7}
	slowSrv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner := slowSrv.Handler()
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && r.Method == http.MethodPost {
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	// Registered after slow.Close so it runs first (cleanups are LIFO):
	// the blocked handler must be released before Close waits on it.
	t.Cleanup(func() { close(release) })
	fast := startBackend(t, server.Config{Seed: 7})

	// backends[0] is the straggler, so the 1-pair batch's only shard
	// lands on it first (round-robin starts at 0).
	g, gw := startGateway(t, Config{
		Backends:   []string{slow.URL, fast.URL},
		HedgeAfter: 25 * time.Millisecond,
	})
	body := batchBody(t, [][2]int{{0, 9}}, 0)
	_, want, _ := postBatch(t, fast.URL, "wire2", body)

	start := time.Now()
	code, got, _ := postBatch(t, gw.URL, "wire2", body)
	if code != http.StatusOK {
		t.Fatalf("hedged batch status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged answer differs from single daemon")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged batch took %v — the straggler was waited out", elapsed)
	}
	if n := g.hedges.Load(); n != 1 {
		t.Fatalf("hedges_total %d, want 1", n)
	}
}

// TestGatewayNoBackends: with the whole rotation down the gateway
// sheds with 503 + Retry-After instead of hanging or 500ing.
func TestGatewayNoBackends(t *testing.T) {
	backend := startBackend(t, server.Config{Seed: 1})
	g, gw := startGateway(t, Config{
		Backends:      []string{backend.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	backend.Close()
	deadline := time.Now().Add(5 * time.Second)
	for g.healthyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober never demoted the closed backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, body, hdr := postBatch(t, gw.URL, "wire2", batchBody(t, [][2]int{{0, 1}}, 0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty rotation: status %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("empty rotation shed without Retry-After")
	}
}

// TestGatewayProberRecovery: a drained backend leaves the rotation on
// the next probe tick and rejoins when it undrains — membership needs
// no operator action in either direction.
func TestGatewayProberRecovery(t *testing.T) {
	cfg := server.Config{Mesh: mesh.MustSquare(2, 8), Seed: 1}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	g, _ := startGateway(t, Config{
		Backends:      []string{ts.URL},
		ProbeInterval: 20 * time.Millisecond,
	})

	srv.Drain()
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for g.healthyCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("prober never saw the backend %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor(0, "drain")
	srv.Undrain()
	waitFor(1, "recover")
}

// TestGatewayRejectsMismatchedBackends: anything that would change
// path bytes across members is a startup error, not a runtime
// surprise.
func TestGatewayRejectsMismatchedBackends(t *testing.T) {
	ctx := context.Background()
	a := startBackend(t, server.Config{Seed: 3})
	cases := []struct {
		name string
		cfg  server.Config
		want string
	}{
		{"seed", server.Config{Seed: 4}, "seed"},
		{"topology", server.Config{Mesh: mesh.MustSquare(2, 4), Seed: 3}, "topology"},
		{"ksample", server.Config{Seed: 3, KSample: 4}, "ksample"},
	}
	for _, c := range cases {
		b := startBackend(t, c.cfg)
		_, err := New(ctx, Config{Backends: []string{a.URL, b.URL}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s mismatch admitted: %v", c.name, err)
		}
	}
	if _, err := New(ctx, Config{Backends: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Fatal("unreachable backend admitted")
	}
}

// TestGatewayMeshIdentity: the gateway's /v1/mesh serves the cluster
// identity with the minimum batch cap, so a typed client (or another
// gateway) fronts it exactly like a daemon.
func TestGatewayMeshIdentity(t *testing.T) {
	small := startBackend(t, server.Config{Seed: 3, MaxBatch: 100})
	big := startBackend(t, server.Config{Seed: 3, MaxBatch: 500})
	_, gw := startGateway(t, Config{Backends: []string{big.URL, small.URL}})
	info, err := obliviousmesh.NewClient(gw.URL, obliviousmesh.ClientConfig{}).Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxBatch != 100 {
		t.Fatalf("gateway MaxBatch %d, want the cluster minimum 100", info.MaxBatch)
	}
	if info.Seed != 3 {
		t.Fatalf("gateway seed %d", info.Seed)
	}
	if !info.HasFeature("batch-base") {
		t.Fatal("gateway does not advertise batch-base")
	}
}

// TestGatewayValidation pins the request-error surface to the
// daemon's: bad format, bad pair, oversized base, oversized batch.
func TestGatewayValidation(t *testing.T) {
	_, gw := startGateway(t, Config{
		Backends: []string{startBackend(t, server.Config{Seed: 1}).URL},
		MaxBatch: 4,
	})
	if code, body, _ := postBatch(t, gw.URL, "bogus", batchBody(t, [][2]int{{0, 1}}, 0)); code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d: %s", code, body)
	}
	if code, body, _ := postBatch(t, gw.URL, "json", batchBody(t, [][2]int{{0, 64}}, 0)); code != http.StatusBadRequest {
		t.Fatalf("out-of-range pair: status %d: %s", code, body)
	}
	if code, body, _ := postBatch(t, gw.URL, "json", batchBody(t, [][2]int{{0, 1}}, 1<<41)); code != http.StatusBadRequest {
		t.Fatalf("oversized base: status %d: %s", code, body)
	}
	if code, body, _ := postBatch(t, gw.URL, "json", batchBody(t, testPairs(5, 3), 0)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d: %s", code, body)
	}
}

// TestGatewayDrain: the gateway drains like a daemon — /healthz flips
// 503 with the in-flight count and new work is shed.
func TestGatewayDrain(t *testing.T) {
	g, gw := startGateway(t, Config{
		Backends: []string{startBackend(t, server.Config{Seed: 1}).URL},
	})
	g.Drain()
	resp, err := http.Get(gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(blob), "draining (in flight: 0)") {
		t.Fatalf("draining healthz: status %d body %q", resp.StatusCode, blob)
	}
	code, body, hdr := postBatch(t, gw.URL, "json", batchBody(t, [][2]int{{0, 1}}, 0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining batch: status %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining shed without Retry-After")
	}
}

// TestGatewayMetricsMerge: one scrape of the gateway sees its own
// counters, every member's up/load gauges, and the cluster sums.
func TestGatewayMetricsMerge(t *testing.T) {
	cfg := server.Config{Seed: 1}
	b0, b1, b2 := startBackend(t, cfg), startBackend(t, cfg), startBackend(t, cfg)
	_, gw := startGateway(t, Config{Backends: []string{b0.URL, b1.URL, b2.URL}})

	if code, body, _ := postBatch(t, gw.URL, "wire2", batchBody(t, testPairs(64, 29), 0)); code != http.StatusOK {
		t.Fatalf("warm-up batch status %d: %s", code, body)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(gw.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	body := scrape()
	for _, line := range []string{
		`meshgate_requests_total{endpoint="batch"} 1`,
		`meshgate_routes_total{endpoint="batch"} 64`,
		"meshgate_backends 3",
		"meshgate_backends_healthy 3",
		"meshgate_cluster_routes_total 64",
		fmt.Sprintf("meshgate_backend_up{backend=%q} 1", b0.URL),
		fmt.Sprintf("meshgate_backend_up{backend=%q} 1", b1.URL),
		fmt.Sprintf("meshgate_backend_up{backend=%q} 1", b2.URL),
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics lack %q:\n%s", line, body)
		}
	}
	b2.Close()
	if body := scrape(); !strings.Contains(body, fmt.Sprintf("meshgate_backend_up{backend=%q} 0", b2.URL)) {
		t.Fatalf("closed backend still scrapes up:\n%s", body)
	}
}

// TestParseExposition pins the merger's line handling: labels stripped
// and summed, comments and garbage skipped.
func TestParseExposition(t *testing.T) {
	vals := parseExposition(`# HELP something
meshrouted_requests_total{endpoint="route"} 3
meshrouted_requests_total{endpoint="batch"} 4
meshrouted_live_congestion 9
meshrouted_latency_avg_seconds{endpoint="batch"} 0.25
not a metric line
`)
	if vals["meshrouted_requests_total"] != 7 {
		t.Fatalf("requests sum %v, want 7", vals["meshrouted_requests_total"])
	}
	if vals["meshrouted_live_congestion"] != 9 {
		t.Fatalf("congestion %v", vals["meshrouted_live_congestion"])
	}
	if vals["meshrouted_latency_avg_seconds"] != 0.25 {
		t.Fatalf("latency %v", vals["meshrouted_latency_avg_seconds"])
	}
}

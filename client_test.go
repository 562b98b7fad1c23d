package obliviousmesh_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/server"
)

// newService boots an in-process meshrouted handler and a Client
// pointed at it.
func newService(t testing.TB, cfg server.Config) (*server.Server, *obliviousmesh.Client) {
	t.Helper()
	if cfg.Mesh == nil {
		m, err := obliviousmesh.NewMesh(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mesh = m
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient: ts.Client(),
	})
}

// The client's three routing calls must agree with a local Router
// keyed by the same seed — the oblivious-service contract: any
// replica (or the client itself) can reproduce served paths.
func TestClientRoutesMatchLocalRouter(t *testing.T) {
	const seed = 11
	_, client := newService(t, server.Config{Seed: seed})
	ctx := context.Background()

	m, err := client.Mesh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 64 {
		t.Fatalf("fetched mesh has %d nodes, want 64", m.Size())
	}
	info, err := client.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seed != seed || info.MaxBatch <= 0 {
		t.Fatalf("bad server info: %+v", info)
	}
	local, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	// Single route: replay (stream, s, t) locally.
	p, stream, err := client.Route(ctx, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if want := local.Path(3, 60, stream); !pathsEq(p, want) {
		t.Fatalf("served path %v != local replay %v (stream %d)", p, want, stream)
	}

	// Batches: stream i is pair i, over both transports.
	var pairs []obliviousmesh.Pair
	for s := 0; s < m.Size(); s++ {
		pairs = append(pairs, obliviousmesh.Pair{
			S: obliviousmesh.NodeID(s),
			T: obliviousmesh.NodeID((s + 17) % m.Size()),
		})
	}
	jsonPaths, err := client.RouteBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	wirePaths, err := client.RouteBatchWire(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		want := local.Path(pr.S, pr.T, uint64(i))
		if !pathsEq(jsonPaths[i], want) {
			t.Fatalf("pair %d: JSON batch path %v != local %v", i, jsonPaths[i], want)
		}
		if !pathsEq(wirePaths[i], want) {
			t.Fatalf("pair %d: wire batch path %v != local %v", i, wirePaths[i], want)
		}
	}

	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "meshrouted_routes_total") {
		t.Fatalf("metrics exposition missing route counters:\n%s", text)
	}
}

// RouteBatchSeg must deliver the run-length form of exactly the local
// selection, RouteBatchWire must travel as wire2, and against a daemon
// that predates wire2 RouteBatchWire fails exactly like RouteBatchSeg.
func TestClientWire2NegotiationAndSegBatch(t *testing.T) {
	const seed = 23
	m, err := obliviousmesh.NewMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Mesh: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	local, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []obliviousmesh.Pair
	for s := 0; s < m.Size(); s++ {
		pairs = append(pairs, obliviousmesh.Pair{
			S: obliviousmesh.NodeID(s),
			T: obliviousmesh.NodeID((s * 7) % m.Size()),
		})
	}

	inner := srv.Handler()
	var lastFormat atomic.Value
	legacy := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			lastFormat.Store(r.URL.Query().Get("format"))
		}
		if r.URL.Path == "/v1/batch" && legacy && r.URL.Query().Get("format") == "wire2" {
			// Impersonate a pre-wire2 daemon: wire2 is an unknown format.
			server.WriteErr(w, http.StatusBadRequest, `unknown format "wire2"`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := context.Background()

	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{HTTPClient: ts.Client()})
	sps, err := client.RouteBatchSeg(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		want := local.Path(pr.S, pr.T, uint64(i))
		if !pathsEq(sps[i].Expand(m), want) {
			t.Fatalf("pair %d: seg batch path != local selection", i)
		}
	}
	if _, err := client.RouteBatchWire(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	if f := lastFormat.Load(); f != "wire2" {
		t.Fatalf("modern daemon: RouteBatchWire used format %q, want wire2", f)
	}

	legacy = true
	_, segErr := client.RouteBatchSeg(ctx, pairs)
	_, wireErr := client.RouteBatchWire(ctx, pairs)
	var segHTTP, wireHTTP *obliviousmesh.HTTPError
	if !errors.As(segErr, &segHTTP) || !errors.As(wireErr, &wireHTTP) {
		t.Fatalf("pre-wire2 daemon: RouteBatchSeg %v, RouteBatchWire %v, want HTTP errors", segErr, wireErr)
	}
	if *segHTTP != *wireHTTP || wireHTTP.StatusCode != http.StatusBadRequest {
		t.Fatalf("pre-wire2 daemon: RouteBatchWire failed with %v, RouteBatchSeg with %v", wireErr, segErr)
	}
}

func pathsEq(a, b obliviousmesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Client errors (bad pairs) must fail immediately as *HTTPError
// without retries.
func TestClientBadRequestNoRetry(t *testing.T) {
	_, client := newService(t, server.Config{})
	_, _, err := client.Route(context.Background(), 0, 9999)
	var herr *obliviousmesh.HTTPError
	if !errors.As(err, &herr) || herr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 HTTPError, got %v", err)
	}
	if !strings.Contains(herr.Message, "out of range") {
		t.Fatalf("error lost the server message: %v", herr)
	}
}

// A server that sheds (429) and then recovers must be invisible to
// the caller: the client backs off and retries to success.
func TestClientRetriesShedding(t *testing.T) {
	m, err := obliviousmesh.NewMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Mesh: m, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First two attempts shed, exactly like a saturated admitter.
		if strings.HasPrefix(r.URL.Path, "/v1/") && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient:  ts.Client(),
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
	})
	p, _, err := client.Route(context.Background(), 0, 63)
	if err != nil {
		t.Fatalf("route through flaky server: %v", err)
	}
	if len(p) == 0 || calls.Load() != 3 {
		t.Fatalf("want success on attempt 3, got %d attempts, path %v", calls.Load(), p)
	}

	// With retries disabled the shed surfaces as an HTTPError.
	calls.Store(0)
	noRetry := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient: ts.Client(),
		MaxRetries: -1,
	})
	_, _, err = noRetry.Route(context.Background(), 0, 63)
	var herr *obliviousmesh.HTTPError
	if !errors.As(err, &herr) || herr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 without retries, got %v", err)
	}
}

// Backoff must honor the context: a cancelled caller stops retrying
// promptly instead of sleeping out the schedule.
func TestClientBackoffHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{
		HTTPClient:  ts.Client(),
		MaxRetries:  10,
		BaseBackoff: time.Hour, // only a context can end this schedule
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := client.Route(ctx, 0, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled client kept backing off for %v", time.Since(start))
	}
}

// Health must report a draining server as unhealthy — that is how a
// load balancer notices the drain sequence has begun.
func TestClientHealthSeesDrain(t *testing.T) {
	srv, client := newService(t, server.Config{})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthy server: %v", err)
	}
	srv.Drain()
	err := client.Health(ctx)
	var herr *obliviousmesh.HTTPError
	if !errors.As(err, &herr) || herr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: want 503 HTTPError, got %v", err)
	}
}

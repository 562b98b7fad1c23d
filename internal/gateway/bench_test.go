package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/server"
)

// benchWriter is an http.ResponseWriter + Flusher that throws the body
// away, so B/op is the gateway's own fan-in bill — shard fetch, merge,
// response framing — not loopback noise on the client side. (The
// backend round-trips still cross real sockets, so B/op includes the
// gateway side of those client calls.)
type benchWriter struct {
	hdr  http.Header
	code int
}

func (d *benchWriter) Header() http.Header {
	if d.hdr == nil {
		d.hdr = make(http.Header)
	}
	return d.hdr
}
func (d *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *benchWriter) WriteHeader(code int)        { d.code = code }
func (d *benchWriter) Flush()                      {}

// newGatewayBench builds a gateway over `shards` real daemons on a
// 2-D mesh of the given side and returns its handler plus a ready
// batch request body.
func newGatewayBench(b testing.TB, side, size, shards int) (http.Handler, []byte) {
	m := mesh.MustSquare(2, side)
	var urls []string
	for i := 0; i < shards; i++ {
		srv, err := server.New(server.Config{
			Mesh: m, Seed: 7,
			MaxInFlight: 8, MaxQueue: 64,
			RequestTimeout: time.Minute,
			BatchChunk:     256,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	g, err := New(context.Background(), Config{
		Backends:       urls,
		DisableHedge:   true,
		ProbeInterval:  time.Hour,
		RequestTimeout: time.Minute,
		BackendTimeout: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)

	pairs := make([][2]int, size)
	for k := 0; k < size; k++ {
		s := (k * 131) % m.Size()
		pairs[k] = [2]int{s, (s + 517) % m.Size()}
	}
	blob, err := json.Marshal(struct {
		Pairs [][2]int `json:"pairs"`
	}{pairs})
	if err != nil {
		b.Fatal(err)
	}
	return g.Handler(), blob
}

// benchGatewayServe runs one wire2 batch per iteration through the
// gateway handler with a discarding writer.
func benchGatewayServe(b *testing.B, side, size, shards int) {
	handler, blob := newGatewayBench(b, side, size, shards)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch?format=wire2", nil)

	serve := func() {
		req.Body = io.NopCloser(bytes.NewReader(blob))
		w := &benchWriter{}
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 3; i++ {
		serve() // warm the shard/copy pools so B/op reflects steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "routes/op")
}

// BenchmarkGatewayBatch measures the spliced wire2 fan-in, swept over
// shard count and batch size on the side-256 mesh (the 3-shard
// 2048-pair cell is the cluster shape the splice gate pins; the sweep
// feeds EXPERIMENTS.md E26). The interesting column is B/op: the
// splice forwards verified payload bytes through pooled buffers
// instead of materializing a SegPath per route.
func BenchmarkGatewayBatch(b *testing.B) {
	for _, shards := range []int{1, 2, 3} {
		for _, size := range []int{512, 2048} {
			b.Run("side256/pairs"+strconv.Itoa(size)+"/shards"+strconv.Itoa(shards)+"/spliced", func(b *testing.B) {
				benchGatewayServe(b, 256, size, shards)
			})
		}
	}
}

// spliceBudget is the splice gate's allocation budget per request:
// 80 KiB for a 2048-pair side-256 batch over 3 shards. The spliced
// fan-in measures about 61–65 KB there; the retired decode/re-encode
// fan-in allocated about 340 KB.
const spliceBudget = 80 << 10

// TestBenchGateGatewaySplice is the CI benchmark gate for the splice:
// on the side-256 mesh, a 2048-pair batch over 3 shards must allocate
// at most spliceBudget bytes per request. Runs with the regular suite
// and explicitly in `make bench-smoke`.
func TestBenchGateGatewaySplice(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the allocation profile; the gate runs in the non-race suite")
	}
	// B/op is far more stable than ns/op, but pools can be emptied by a
	// badly-timed GC — take the best of two runs.
	best := int64(-1)
	for rep := 0; rep < 2; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			benchGatewayServe(b, 256, 2048, 3)
		})
		if ao := r.AllocedBytesPerOp(); best < 0 || ao < best {
			best = ao
		}
	}
	if best > spliceBudget {
		t.Fatalf("spliced wire2 fan-in: %d B/op, want <= %d (80 KiB)", best, spliceBudget)
	}
	t.Logf("spliced wire2 fan-in: %d B/op (budget %d)", best, spliceBudget)
}

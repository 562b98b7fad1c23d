package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
)

// discardWriter is an http.ResponseWriter + Flusher that throws the
// body away. Driving the handler through it measures the serve path's
// own allocations — routing, slabs, encoding — without loopback-socket
// or client-side noise polluting B/op.
type discardWriter struct {
	hdr  http.Header
	code int
}

func (d *discardWriter) Header() http.Header {
	if d.hdr == nil {
		d.hdr = make(http.Header)
	}
	return d.hdr
}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Flush()                      {}

// newPipelineBenchServer builds a wire2-serving handler on a 2-D mesh
// of the given side, sampling k candidates per packet, with chunking
// small enough that a size-pair batch really flows through multiple
// pipeline handoffs.
func newPipelineBenchServer(b testing.TB, side, k, size int) (http.Handler, []byte) {
	m := mesh.MustSquare(2, side)
	srv, err := New(Config{
		Mesh: m, Seed: 7, KSample: k,
		MaxInFlight: 8, MaxQueue: 64,
		RequestTimeout: time.Minute,
		BatchChunk:     256,
	})
	if err != nil {
		b.Fatal(err)
	}
	var req BatchRequest
	for i := 0; i < size; i++ {
		s := (i * 131) % m.Size()
		req.Pairs = append(req.Pairs, [2]int{s, (s + 517) % m.Size()})
	}
	blob, _ := json.Marshal(req)
	return srv.Handler(), blob
}

// benchPipelineServe runs one wire2 batch of size pairs per iteration
// through the handler with a discarding writer; B/op is the serve
// path's live allocation bill for the batch in 256-pair chunks.
func benchPipelineServe(b *testing.B, side, k, size int) {
	handler, blob := newPipelineBenchServer(b, side, k, size)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch?format=wire2", nil)

	serve := func() {
		req.Body = io.NopCloser(bytes.NewReader(blob))
		w := &discardWriter{}
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 3; i++ {
		serve() // warm the pools so B/op reflects steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "routes/op")
}

// BenchmarkServerBatchPipeline measures the pipelined slab-pooled
// wire2 serve path. The interesting column is B/op: the pipeline keeps
// O(chunk) live bytes in recycled slabs, however long the batch. The
// ksample4 arm serves meshbench's ksample-batch shape, 128-pair k=4
// batches, so its B/op shows what a request's load snapshot costs.
func BenchmarkServerBatchPipeline(b *testing.B) {
	for _, side := range []int{64, 256} {
		b.Run("side"+itoa(side)+"/pipelined", func(b *testing.B) {
			benchPipelineServe(b, side, 1, 2048)
		})
	}
	b.Run("side256/ksample4", func(b *testing.B) {
		benchPipelineServe(b, 256, 4, 128)
	})
}

// pipelineBudget is the allocation budget of one pipelined side-256
// wire2 serve of 2048 pairs. BENCH_PR18.json measured 7,593 B/op; the
// batch-then-encode loop the pipeline replaced materialized the whole
// batch at about 188 KB/op.
const pipelineBudget = 16 << 10

// TestBenchGateServerPipeline is the CI benchmark gate of the serve
// pipeline: on the side-256 mesh the pipelined wire2 serve path must
// allocate at most pipelineBudget bytes per request. The gate runs
// with the regular suite (and explicitly in `make bench-smoke`) so a
// pooling regression fails fast, not only when someone re-runs
// `make bench-json`.
func TestBenchGateServerPipeline(t *testing.T) {
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
			benchPipelineServe(b, 256, 1, 2048)
		})
		if ao := r.AllocedBytesPerOp(); best < 0 || ao < best {
			best = ao
		}
	}
	if best > pipelineBudget {
		t.Fatalf("pipelined wire2 serve: %d B/op, budget %d B/op", best, pipelineBudget)
	}
	t.Logf("pipelined wire2 serve: %d B/op, budget %d B/op", best, pipelineBudget)
}

// ksampleBudget is the allocation budget of one 128-pair k=4 wire2
// serve on the side-256 mesh: a sixteenth of the 1 MiB load snapshot,
// so a request that allocates its own snapshot instead of taking one
// from the server's buffer cache fails it. The cached serve measured
// about 2.3 KB/op, against about 1,052 KB/op with a fresh snapshot per
// request.
const ksampleBudget = 64 << 10

// TestBenchGateServerKSample is the allocation gate of the sampling
// serve path, run like TestBenchGateServerPipeline.
func TestBenchGateServerKSample(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the allocation profile; the gate runs in the non-race suite")
	}
	// A GC mid-run frees the cached snapshot and the next request
	// allocates a new one — take the best of two runs.
	best := int64(-1)
	for rep := 0; rep < 2; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			benchPipelineServe(b, 256, 4, 128)
		})
		if ao := r.AllocedBytesPerOp(); best < 0 || ao < best {
			best = ao
		}
	}
	if best > ksampleBudget {
		t.Fatalf("k=4 wire2 serve: %d B/op, budget %d B/op", best, ksampleBudget)
	}
	t.Logf("k=4 wire2 serve: %d B/op, budget %d B/op", best, ksampleBudget)
}

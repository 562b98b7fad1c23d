package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/serial"
)

// postWire2 posts a wire2 batch and returns status and raw body bytes.
func postWire2(t testing.TB, url string, pairs [][2]int) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch?format=wire2", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// testBatchPairs builds a deterministic batch covering the whole mesh,
// including an s==t pair (empty path on the wire).
func testBatchPairs(m *mesh.Mesh, n int) [][2]int {
	size := m.Size()
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{(i * 7) % size, (i*13 + size/2) % size}
	}
	if n > 0 {
		pairs[n-1] = [2]int{3, 3}
	}
	return pairs
}

// localReplica routes wire2 batches the way a server with the same
// seed and k does, with a local selector and tracker, and encodes each
// batch in one piece with serial.EncodeWireSeg — the reference every
// pipelined response must equal byte for byte. Each chunk of chunk
// pairs is scored against a snapshot taken before it routes and booked
// afterwards, the server's order; at k=1 the snapshot is ignored and a
// batch is exactly SelectAllSeg's.
type localReplica struct {
	sel   *core.Selector
	live  *metrics.LiveLoads
	chunk int
}

func newLocalReplica(m *mesh.Mesh, seed uint64, k, chunk int) *localReplica {
	return &localReplica{
		sel:   core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: seed, KSample: k}),
		live:  metrics.NewLiveLoads(m, 1),
		chunk: chunk,
	}
}

func (r *localReplica) wire2(t testing.TB, pairs [][2]int) []byte {
	t.Helper()
	m := r.sel.Mesh()
	ps := make([]mesh.Pair, len(pairs))
	for i, pr := range pairs {
		ps[i] = mesh.Pair{S: mesh.NodeID(pr[0]), T: mesh.NodeID(pr[1])}
	}
	sps := make([]mesh.SegPath, len(ps))
	snap := make([]int64, m.EdgeSpace())
	for lo := 0; lo < len(ps); lo += r.chunk {
		hi := min(lo+r.chunk, len(ps))
		r.sel.Select(core.Request{Pairs: ps[lo:hi], Base: uint64(lo), Workers: 1, Snapshot: r.live.SnapshotInto(snap), Segs: sps[lo:hi]})
		for i := lo; i < hi; i++ {
			r.live.AddSegPath(m, uint64(i), sps[i])
		}
	}
	var buf bytes.Buffer
	if err := serial.EncodeWireSeg(&buf, m, sps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineGoldenEquality is the serve pipeline's acceptance gate:
// the pipelined wire2 response is byte-identical to a local replica's
// one-piece encoding across chain backends, k-sample modes, and seeds.
// The replica books what it routes, so even the k>1 live-load feedback
// histories match.
func TestPipelineGoldenEquality(t *testing.T) {
	for _, cs := range []string{"", "table"} {
		for _, k := range []int{1, 4} {
			for _, seed := range []uint64{1, 9} {
				t.Run(fmt.Sprintf("cs=%s/k=%d/seed=%d", cs, k, seed), func(t *testing.T) {
					cfg := Config{Seed: seed, ChainSource: cs, KSample: k, BatchChunk: 16, BatchWorkers: 3}
					srv, ts := newTestServer(t, cfg)
					ref := newLocalReplica(srv.Mesh(), seed, k, cfg.BatchChunk)

					pairs := testBatchPairs(srv.Mesh(), 100)
					// Two rounds: the second round's k>1 snapshots depend on
					// the first round's booking, and the second round reuses
					// the pipeline's pooled buffers.
					for round := 0; round < 2; round++ {
						code, body := postWire2(t, ts.URL, pairs)
						if code != http.StatusOK {
							t.Fatalf("round %d: status %d", round, code)
						}
						if want := ref.wire2(t, pairs); !bytes.Equal(body, want) {
							t.Fatalf("round %d: pipelined response differs from the local encoding (%d vs %d bytes)",
								round, len(body), len(want))
						}
					}
				})
			}
		}
	}
}

// TestPipelineEmptyBatch: zero pairs still yield a complete, decodable
// OMP2 stream (header + trailer), not a hang or a truncation.
func TestPipelineEmptyBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 2})
	code, body := postWire2(t, ts.URL, [][2]int{})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	sps, err := serial.DecodeWireSeg(bytes.NewReader(body), srv.Mesh(), 0)
	if err != nil {
		t.Fatalf("empty-batch stream invalid: %v", err)
	}
	if len(sps) != 0 {
		t.Fatalf("%d paths from empty batch", len(sps))
	}
}

// TestPipelineChunkGeqBatch: chunk == batch (one chunk) and
// chunk > batch (default 4096 over a small batch) both produce valid
// complete streams — the degenerate pipeline with a single handoff.
func TestPipelineChunkGeqBatch(t *testing.T) {
	for _, chunk := range []int{12, 4096} {
		srv, ts := newTestServer(t, Config{Seed: 4, BatchChunk: chunk})
		pairs := testBatchPairs(srv.Mesh(), 12)
		code, body := postWire2(t, ts.URL, pairs)
		if code != http.StatusOK {
			t.Fatalf("chunk %d: status %d", chunk, code)
		}
		sps, err := serial.DecodeWireSeg(bytes.NewReader(body), srv.Mesh(), len(pairs))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if len(sps) != len(pairs) {
			t.Fatalf("chunk %d: %d paths for %d pairs", chunk, len(sps), len(pairs))
		}
	}
}

// TestPipelineDeadlineMidStream: a deadline expiring between chunks
// truncates the stream BEFORE the checksum trailer — the partial flush
// is well-formed prefix bytes that any decoder rejects, never a
// shorter-but-valid OMP2 stream.
func TestPipelineDeadlineMidStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 6, BatchChunk: 1, RequestTimeout: 30 * time.Millisecond})
	srv.chunkHook = func(lo int) {
		if lo > 0 {
			time.Sleep(60 * time.Millisecond) // push past the deadline mid-stream
		}
	}
	pairs := testBatchPairs(srv.Mesh(), 4)
	code, body := postWire2(t, ts.URL, pairs)
	// Headers went out before the deadline hit, so the status is 200
	// and the truncation must be detectable from the body alone.
	if code != http.StatusOK {
		t.Fatalf("status %d (expected 200 with a truncated body)", code)
	}
	if _, err := serial.DecodeWireSeg(bytes.NewReader(body), srv.Mesh(), len(pairs)); err == nil {
		t.Fatal("mid-pipeline deadline produced a stream that decodes cleanly")
	}
	st := srv.Stats()
	if st.Timeouts == 0 {
		t.Fatalf("timeout not counted: %+v", st)
	}
}

// TestPipelinePoolReuseSequential hammers one server with sequential
// wire2 batches so the pooled pipeBufs, arenas, and encoders are
// recycled across requests, checking every response against a local
// replica's one-piece encoding. Run under -race (make race) this is
// also the pipeline's goroutine-lifecycle check.
func TestPipelinePoolReuseSequential(t *testing.T) {
	cfg := Config{Seed: 8, BatchChunk: 8, BatchWorkers: 2}
	srv, ts := newTestServer(t, cfg)
	ref := newLocalReplica(srv.Mesh(), cfg.Seed, 1, cfg.BatchChunk)
	for round := 0; round < 6; round++ {
		// Vary the batch size so slabs and chunk buffers are reused at
		// different fill levels, including a final ragged chunk.
		pairs := testBatchPairs(srv.Mesh(), 5+17*round)
		code, body := postWire2(t, ts.URL, pairs)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, code)
		}
		if !bytes.Equal(body, ref.wire2(t, pairs)) {
			t.Fatalf("round %d: reused-pool response diverged", round)
		}
	}
}

// TestJSONScratchRows pins the scratch carving: rows hold the right
// values, don't bleed into each other, and marshal exactly like the
// per-path allocations they replaced.
func TestJSONScratchRows(t *testing.T) {
	var sc jsonScratch
	paths := []mesh.Path{{0, 1, 2}, {}, {5}}
	rows := sc.hopRows(paths)
	blob, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[0,1,2],[],[5]]`; string(blob) != want {
		t.Fatalf("hopRows marshal %s, want %s", blob, want)
	}

	sps := []mesh.SegPath{
		{Start: 7, Segs: []mesh.Seg{{Dim: 0, Run: 3}, {Dim: 1, Run: -2}}},
		{Start: 4},
	}
	rows = sc.segRows(sps)
	blob, err = json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[7,0,3,1,-2],[4]]`; string(blob) != want {
		t.Fatalf("segRows marshal %s, want %s", blob, want)
	}
}

// TestJSONScratchAllocs is the satellite's alloc-regression pin: once
// warmed, shaping a batch response allocates nothing — the per-path
// make([]int, ...) calls are gone.
func TestJSONScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	paths := make([]mesh.Path, 64)
	sps := make([]mesh.SegPath, 64)
	for i := range paths {
		paths[i] = mesh.Path{mesh.NodeID(i), mesh.NodeID(i + 1), mesh.NodeID(i + 2)}
		sps[i] = mesh.SegPath{Start: mesh.NodeID(i), Segs: []mesh.Seg{{Dim: 0, Run: 2}}}
	}
	var sc jsonScratch
	sc.hopRows(paths)
	sc.segRows(sps)
	sc.intsFor(128)
	if n := testing.AllocsPerRun(20, func() { sc.hopRows(paths) }); n != 0 {
		t.Fatalf("warm hopRows allocates %.1f per run", n)
	}
	if n := testing.AllocsPerRun(20, func() { sc.segRows(sps) }); n != 0 {
		t.Fatalf("warm segRows allocates %.1f per run", n)
	}
	if n := testing.AllocsPerRun(20, func() { sc.intsFor(128) }); n != 0 {
		t.Fatalf("warm intsFor allocates %.1f per run", n)
	}
}

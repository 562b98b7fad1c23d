package invariant

import (
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// TestBasedBatchChecksStream attaches the engine to a based batch — a
// shard of a larger logical batch, routed with streams Base+j — in hop
// form, run form and k-sample form. Hooks receive the packet's stream,
// so every packet is re-derived under the stream it was routed with and
// a clean batch yields zero violations.
func TestBasedBatchChecksStream(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	pairs := workload.RandomPermutation(m, 5).Pairs
	const base = 1000
	// A non-uniform snapshot, so some packets commit a re-draw and the
	// k-sample form checks candidate streams other than the packet's.
	snap := make([]int64, m.EdgeSpace())
	for i := range snap {
		snap[i] = int64((i * 2654435761) % 13)
	}
	for _, tc := range []struct {
		name string
		k    int
		req  func(e *Engine) core.Request
	}{
		{"hops", 1, func(e *Engine) core.Request {
			return core.Request{Paths: make([]mesh.Path, len(pairs)), Hooks: core.Hooks{Path: e.PathObserver()}}
		}},
		{"runs", 1, func(e *Engine) core.Request {
			return core.Request{Segs: make([]mesh.SegPath, len(pairs)), Hooks: core.Hooks{Seg: e.SegPathObserver()}}
		}},
		{"ksample4", 4, func(e *Engine) core.Request {
			return core.Request{Segs: make([]mesh.SegPath, len(pairs)), Snapshot: snap, Hooks: core.Hooks{Cand: e.KSampleObserver()}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 1, KSample: tc.k})
			req := tc.req(e)
			req.Pairs, req.Base, req.Workers = pairs, base, 2
			_, ks := e.Selector().Select(req)
			if got := e.Checked(); got != uint64(len(pairs)) {
				t.Fatalf("checked %d packets, want %d", got, len(pairs))
			}
			if n := e.Count(); n != 0 {
				t.Fatalf("%d of %d packets flagged in a clean based batch; first: %v", n, len(pairs), e.Violations()[0])
			}
			if tc.k > 1 && ks.RedrawWins == 0 {
				t.Fatal("no re-draw committed: the k-sample form checked only candidate 0")
			}
		})
	}
}

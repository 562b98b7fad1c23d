package core

import (
	"sync/atomic"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/workload"
)

func pathsEqual(a, b []mesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSelectAllIntoDeterminism: the fused engine must be bit-for-bit
// identical to per-packet PathStats for every variant, on meshes and
// tori — buffer reuse must not leak state between packets.
func TestSelectAllIntoDeterminism(t *testing.T) {
	cases := []struct {
		name string
		m    *mesh.Mesh
		opt  Options
	}{
		{"2d", mesh.MustSquare(2, 16), Options{Variant: Variant2D, Seed: 7}},
		{"general", mesh.MustSquare(3, 8), Options{Variant: VariantGeneral, Seed: 7}},
		{"torus", mesh.MustSquareTorus(2, 16), Options{Variant: Variant2D, Seed: 7}},
		{"fresh-bits", mesh.MustSquare(2, 16), Options{Variant: Variant2D, Seed: 7, FreshBits: true}},
		{"keep-cycles", mesh.MustSquare(2, 16), Options{Variant: Variant2D, Seed: 7, KeepCycles: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sel := MustNewSelector(c.m, c.opt)
			prob := workload.RandomPermutation(c.m, 11)

			// Reference: the one-packet-at-a-time API with fresh buffers.
			want := make([]mesh.Path, len(prob.Pairs))
			var wantAgg Aggregate
			for i, pr := range prob.Pairs {
				var st Stats
				want[i], st = sel.PathStats(pr.S, pr.T, uint64(i))
				wantAgg.Add(st)
			}

			got, gotAgg := sel.SelectAll(prob.Pairs)
			if !pathsEqual(got, want) {
				t.Fatal("SelectAll differs from per-packet PathStats")
			}
			if gotAgg != wantAgg {
				t.Fatalf("aggregate mismatch: %+v vs %+v", gotAgg, wantAgg)
			}

			into := make([]mesh.Path, len(prob.Pairs))
			intoAgg, _ := sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Paths: into})
			if !pathsEqual(into, want) {
				t.Fatal("serial Select differs from SelectAll")
			}
			if intoAgg != wantAgg {
				t.Fatalf("serial Select aggregate mismatch: %+v vs %+v", intoAgg, wantAgg)
			}

			par := make([]mesh.Path, len(prob.Pairs))
			parAgg, _ := sel.Select(Request{Pairs: prob.Pairs, Workers: 4, Paths: par})
			if !pathsEqual(par, want) {
				t.Fatal("parallel Select differs from SelectAll")
			}
			if parAgg != wantAgg {
				t.Fatalf("parallel aggregate mismatch: %+v vs %+v", parAgg, wantAgg)
			}
		})
	}
}

// TestSelectAllIntoObserver: the fused observer must see exactly the
// edge multiset of the returned paths — equal to a batch EdgeLoads
// second pass, which it replaces.
func TestSelectAllIntoObserver(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 3})
	prob := workload.RandomPermutation(m, 5)

	paths := make([]mesh.Path, len(prob.Pairs))
	loads := make([]int64, m.EdgeSpace())
	packets := make([]int, len(prob.Pairs))
	sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Paths: paths, Hooks: Hooks{Edge: func(pkt int, e mesh.EdgeID) {
		loads[e]++
		packets[pkt]++
	}}})

	want := metrics.EdgeLoads(m, paths)
	for e := range want {
		if loads[e] != want[e] {
			t.Fatalf("edge %d: observed %d, batch %d", e, loads[e], want[e])
		}
	}
	for i, p := range paths {
		if packets[i] != p.Len() {
			t.Fatalf("packet %d: observed %d edges, path has %d", i, packets[i], p.Len())
		}
	}
}

// TestSelectAllParallelIntoObserverLive routes concurrently into a
// LiveLoads tracker (run with -race) and checks the live snapshot
// equals the batch tally.
func TestSelectAllParallelIntoObserverLive(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 9})
	prob := workload.RandomPermutation(m, 13)

	live := metrics.NewLiveLoads(m, 0)
	paths := make([]mesh.Path, len(prob.Pairs))
	sel.Select(Request{Pairs: prob.Pairs, Workers: 8, Paths: paths, Hooks: Hooks{Edge: func(pkt int, e mesh.EdgeID) {
		live.Add(uint64(pkt), e)
	}}})

	want := metrics.EdgeLoads(m, paths)
	got := live.Snapshot()
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("edge %d: live %d, batch %d", e, got[e], want[e])
		}
	}
	if live.Max() != metrics.MaxLoad(want) {
		t.Errorf("live congestion %d, batch %d", live.Max(), metrics.MaxLoad(want))
	}
}

// TestSelectAllParallelExplicitWorkers: an explicit worker count must
// be honored (clamped to len(pairs)), not silently dropped to serial —
// the old heuristic ignored workers when len(pairs) < 2*workers.
func TestSelectAllParallelExplicitWorkers(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 5})
	prob := workload.RandomPermutation(m, 2)
	small := prob.Pairs[:6] // fewer than 2*8 packets

	want, wantAgg := sel.SelectAll(small)

	var calls int64
	paths := make([]mesh.Path, len(small))
	agg, _ := sel.Select(Request{Pairs: small, Workers: 8, Paths: paths, Hooks: Hooks{Edge: func(pkt int, e mesh.EdgeID) {
		atomic.AddInt64(&calls, 1)
	}}})
	if !pathsEqual(paths, want) {
		t.Fatal("explicit-worker run differs from SelectAll")
	}
	if agg != wantAgg {
		t.Fatalf("aggregate mismatch: %+v vs %+v", agg, wantAgg)
	}
	var wantCalls int64
	for _, p := range want {
		wantCalls += int64(p.Len())
	}
	if calls != wantCalls {
		t.Errorf("observer calls = %d, want %d", calls, wantCalls)
	}

	// workers far above len(pairs) must clamp, not spawn idle workers
	// or fall back to serial silently; result must still match.
	paths2 := make([]mesh.Path, len(small))
	agg2, _ := sel.Select(Request{Pairs: small, Workers: 64, Paths: paths2})
	if !pathsEqual(paths2, want) || agg2 != wantAgg {
		t.Fatal("clamped run differs from SelectAll")
	}
}

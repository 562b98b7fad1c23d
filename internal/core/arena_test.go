package core

import (
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// testPairs draws a deterministic random pair batch for the arena
// tests; s==t pairs occur, covering the empty-path commit.
func testPairs(m *mesh.Mesh, n int) []mesh.Pair {
	return workload.RandomPairs(m, n, 42).Pairs
}

// segPathsEqual compares two SegPath sets value-wise (backing memory is
// allowed to differ — that is the point of the arena).
func arenaPathsEqual(t *testing.T, label string, got, want []mesh.SegPath) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i].Start || len(got[i].Segs) != len(want[i].Segs) {
			t.Fatalf("%s: path %d = %+v, want %+v", label, i, got[i], want[i])
		}
		for j := range want[i].Segs {
			if got[i].Segs[j] != want[i].Segs[j] {
				t.Fatalf("%s: path %d seg %d = %+v, want %+v",
					label, i, j, got[i].Segs[j], want[i].Segs[j])
			}
		}
	}
}

// TestSegArenaAlloc exercises the slab mechanics: carved slices are
// disjoint, appends cannot bleed past their capacity into a
// neighbour's segments, oversize requests work, and Reset recycles the
// blocks without reallocating.
func TestSegArenaAlloc(t *testing.T) {
	var a SegArena
	if got := a.Alloc(0); got != nil {
		t.Fatalf("Alloc(0) = %v, want nil", got)
	}
	x := append(a.Alloc(2), mesh.Seg{Dim: 1, Run: 1}, mesh.Seg{Dim: 1, Run: 2})
	y := append(a.Alloc(1), mesh.Seg{Dim: 2, Run: 3})
	if x[0].Dim != 1 || x[1].Run != 2 || y[0].Run != 3 {
		t.Fatalf("neighbouring allocations interfere: x=%v y=%v", x, y)
	}
	if cap(x) != 2 || cap(y) != 1 {
		t.Fatalf("caps %d,%d; three-index carving should pin them to 2,1", cap(x), cap(y))
	}

	big := a.Alloc(3 * segArenaBlock) // oversize: dedicated block
	if cap(big) != 3*segArenaBlock {
		t.Fatalf("oversize alloc cap %d, want %d", cap(big), 3*segArenaBlock)
	}
	foot := a.Footprint()
	a.Reset()
	if a.Footprint() != foot {
		t.Fatalf("Reset changed footprint %d -> %d; blocks must be retained", foot, a.Footprint())
	}
	// After Reset the same requests fit the same blocks: no growth.
	a.Alloc(2)
	a.Alloc(1)
	a.Alloc(3 * segArenaBlock)
	if a.Footprint() != foot {
		t.Fatalf("re-Alloc after Reset grew footprint %d -> %d", foot, a.Footprint())
	}

	// Filling a block spills to the next without panicking.
	var b SegArena
	b.Alloc(segArenaBlock - 1)
	s := b.Alloc(2) // does not fit the 1 remaining slot
	if cap(s) != 2 {
		t.Fatalf("spill alloc cap %d, want 2", cap(s))
	}
}

// TestSelectChunkSegArenaGolden pins the tentpole's correctness core:
// chunked arena-backed selection produces value-identical paths and
// Aggregates to the whole-batch heap engine, for any chunking, with
// and without an arena group, on mesh and torus.
func TestSelectChunkSegArenaGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *mesh.Mesh
	}{
		{"mesh8", func() *mesh.Mesh { return mesh.MustSquare(2, 8) }},
		{"torus8", func() *mesh.Mesh { return mesh.MustSquareTorus(2, 8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build()
			sel, err := NewSelector(m, Options{Variant: Variant2D, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			pairs := testPairs(m, 257) // odd count: ragged final chunk
			want, wantAgg := sel.SelectAllSeg(pairs)

			for _, chunk := range []int{1, 16, 64, 257, 1000} {
				ag := &SegArenaGroup{}
				got := make([]mesh.SegPath, len(pairs))
				var agg Aggregate
				for lo := 0; lo < len(pairs); lo += chunk {
					hi := lo + chunk
					if hi > len(pairs) {
						hi = len(pairs)
					}
					// Chunk-relative output, then copy out before the Reset a
					// real pipeline would do (values survive; memory doesn't).
					out := make([]mesh.SegPath, hi-lo)
					cagg, _ := sel.Select(Request{Pairs: pairs[lo:hi], Base: uint64(lo), Workers: 3, Arena: ag, Segs: out})
					agg.Merge(cagg)
					for i, sp := range out {
						got[lo+i] = mesh.SegPath{Start: sp.Start}
						if len(sp.Segs) > 0 {
							got[lo+i].Segs = append([]mesh.Seg(nil), sp.Segs...)
						}
					}
					ag.Reset()
				}
				arenaPathsEqual(t, tc.name, got, want)
				if agg != wantAgg {
					t.Fatalf("chunk %d: aggregate %+v, want %+v", chunk, agg, wantAgg)
				}
			}

			// nil arena group: plain heap copies, same values.
			out := make([]mesh.SegPath, len(pairs))
			sel.Select(Request{Pairs: pairs, Workers: 2, Segs: out})
			arenaPathsEqual(t, tc.name+"/nil-arena", out, want)
		})
	}
}

// TestSelectChunkKSegArenaGolden is the k-sample counterpart: the
// chunked arena engine commits the same candidates as the whole-range
// heap engine against the same snapshot, and k=1 stays byte-identical
// to plain H.
func TestSelectChunkKSegArenaGolden(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	pairs := testPairs(m, 129)
	// A non-trivial snapshot: route the batch once and book it.
	base, err := NewSelector(m, Options{Variant: Variant2D, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]int64, m.EdgeSpace())
	warm, _ := base.SelectAllSeg(pairs)
	for _, sp := range warm {
		m.SegPathEdges(sp, func(e mesh.EdgeID) { snap[e]++ })
	}

	for _, k := range []int{1, 4} {
		sel, err := NewSelector(m, Options{Variant: Variant2D, Seed: 7, KSample: k})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]mesh.SegPath, len(pairs))
		wantAgg, wantKS := sel.Select(Request{Pairs: pairs, Workers: 1, Snapshot: snap, Segs: want})

		ag := &SegArenaGroup{}
		got := make([]mesh.SegPath, len(pairs))
		var agg Aggregate
		var ks KStats
		for lo := 0; lo < len(pairs); lo += 32 {
			hi := lo + 32
			if hi > len(pairs) {
				hi = len(pairs)
			}
			out := make([]mesh.SegPath, hi-lo)
			wagg, wks := sel.Select(Request{Pairs: pairs[lo:hi], Base: uint64(lo), Workers: 3, Snapshot: snap, Arena: ag, Segs: out})
			agg.Merge(wagg)
			ks.Merge(wks)
			for i, sp := range out {
				got[lo+i] = mesh.SegPath{Start: sp.Start}
				if len(sp.Segs) > 0 {
					got[lo+i].Segs = append([]mesh.Seg(nil), sp.Segs...)
				}
			}
			ag.Reset()
		}
		arenaPathsEqual(t, "ksample", got, want)
		if agg != wantAgg {
			t.Fatalf("k=%d: aggregate %+v, want %+v", k, agg, wantAgg)
		}
		if ks != wantKS {
			t.Fatalf("k=%d: kstats %+v, want %+v", k, ks, wantKS)
		}
	}
}

// TestSelectChunkSegArenaAllocs pins the arena's reason to exist: a
// warmed chunk selection allocates nothing per packet — the committed
// copies land in recycled slabs instead of the heap.
func TestSelectChunkSegArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	m := mesh.MustSquare(2, 16)
	sel, err := NewSelector(m, Options{Variant: Variant2D, Seed: 3, ChainSource: ChainSourceTable})
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(m, 256)
	out := make([]mesh.SegPath, len(pairs))
	ag := &SegArenaGroup{}
	warmups := 3
	for i := 0; i < warmups; i++ {
		ag.Reset()
		sel.Select(Request{Pairs: pairs, Arena: ag, Segs: out})
	}
	avg := testing.AllocsPerRun(10, func() {
		ag.Reset()
		sel.Select(Request{Pairs: pairs, Arena: ag, Segs: out})
	})
	// Serial fallback (one worker, warm scratch, warm slabs): the only
	// tolerated allocations are incidental (goroutine bookkeeping when
	// the parallel path engages); per-packet copies must be gone.
	if perPacket := avg / float64(len(pairs)); perPacket >= 0.05 {
		t.Fatalf("%.2f allocs per run = %.3f per packet; arena selection must not allocate per packet", avg, perPacket)
	}
}

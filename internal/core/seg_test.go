package core

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// expandAll expands a SegPath batch to hop paths.
func expandAll(m *mesh.Mesh, sps []mesh.SegPath) []mesh.Path {
	paths := make([]mesh.Path, len(sps))
	for i, sp := range sps {
		paths[i] = sp.Expand(m)
	}
	return paths
}

// TestSegGoldenEquality is the acceptance bar of the representation
// change: for every variant, seed, chain backend and engine (serial
// and parallel), expanding the segment selector's output must be
// byte-identical to the legacy hop selector's paths, with identical
// aggregates. cacheOff=false runs the default backend (the compiled
// table), cacheOff=true the ChainSourceNone recompute.
func TestSegGoldenEquality(t *testing.T) {
	for _, c := range cacheEquivCases() {
		for _, seed := range []uint64{1, 42, 7777} {
			for _, cacheOff := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed%d/cacheOff=%v", c.name, seed, cacheOff)
				t.Run(name, func(t *testing.T) {
					opt := c.opt
					opt.Seed = seed
					if cacheOff {
						opt.ChainSource = ChainSourceNone
					}
					sel := MustNewSelector(c.m, opt)
					prob := workload.RandomPermutation(c.m, seed+3)

					want, wantAgg := sel.SelectAll(prob.Pairs)

					sps, agg := sel.SelectAllSeg(prob.Pairs)
					if agg != wantAgg {
						t.Fatalf("seg aggregate %+v != hop %+v", agg, wantAgg)
					}
					if !pathsEqual(expandAll(c.m, sps), want) {
						t.Fatal("expanded seg paths differ from hop paths")
					}
					for i, sp := range sps {
						if err := c.m.ValidateSeg(sp, prob.Pairs[i].S, prob.Pairs[i].T); err != nil {
							t.Fatalf("packet %d: %v", i, err)
						}
					}

					par := make([]mesh.SegPath, len(prob.Pairs))
					aggP, _ := sel.Select(Request{Pairs: prob.Pairs, Workers: 8, Segs: par})
					if aggP != wantAgg {
						t.Fatalf("parallel seg aggregate %+v != hop %+v", aggP, wantAgg)
					}
					if !pathsEqual(expandAll(c.m, par), want) {
						t.Fatal("parallel expanded seg paths differ from hop paths")
					}
				})
			}
		}
	}
}

// TestSegCycleFallbackExercised guards the golden suite itself: the
// equality above says nothing about loop erasure unless some packets
// actually lose hops to cycle removal. Require that the suite's
// workloads erase some loops.
func TestSegCycleFallbackExercised(t *testing.T) {
	cycles := 0
	for _, c := range cacheEquivCases() {
		for _, seed := range []uint64{1, 42, 7777} {
			opt := c.opt
			opt.Seed = seed
			sel := MustNewSelector(c.m, opt)
			prob := workload.RandomPermutation(c.m, seed+3)
			sps := make([]mesh.SegPath, len(prob.Pairs))
			sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps, Hooks: Hooks{
				Seg: func(_ int, _ mesh.Pair, _ mesh.SegPath, st Stats) {
					if st.RawLen != st.Len {
						cycles++
					}
				},
			}})
		}
	}
	if cycles == 0 {
		t.Fatal("no packet in the golden suite exercised the cycle-removal fallback")
	}
}

// TestSegPathMatchesPathCompress pins the single-packet entry points
// to each other: SegPath must be exactly Compress(Path), with
// identical stats.
func TestSegPathMatchesPathCompress(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 11})
	n := mesh.NodeID(m.Size() - 1)
	for _, pr := range []mesh.Pair{{S: 0, T: n}, {S: 5, T: 200}, {S: n / 2, T: n / 2}, {S: n, T: 0}} {
		for stream := uint64(0); stream < 16; stream++ {
			hop, hst := sel.PathStats(pr.S, pr.T, stream)
			sp, sst := sel.SegPathStats(pr.S, pr.T, stream)
			if hst != sst {
				t.Fatalf("pair %v stream %d: stats %+v != %+v", pr, stream, sst, hst)
			}
			want := hop.Compress(m)
			if sp.Start != want.Start || len(sp.Segs) != len(want.Segs) {
				t.Fatalf("pair %v stream %d: seg %+v != compress %+v", pr, stream, sp, want)
			}
			for i := range want.Segs {
				if sp.Segs[i] != want.Segs[i] {
					t.Fatalf("pair %v stream %d: seg[%d] %+v != %+v", pr, stream, i, sp.Segs[i], want.Segs[i])
				}
			}
			if sp.Len() != sst.Len {
				t.Fatalf("pair %v stream %d: Len() %d != stats %d", pr, stream, sp.Len(), sst.Len)
			}
		}
	}
}

// TestSegKeepCycles: under KeepCycles the segment output must expand
// to the raw (cycle-preserving) hop path.
func TestSegKeepCycles(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 3, KeepCycles: true})
	prob := workload.RandomPermutation(m, 7)
	want, wantAgg := sel.SelectAll(prob.Pairs)
	sps, agg := sel.SelectAllSeg(prob.Pairs)
	if agg != wantAgg {
		t.Fatalf("aggregate %+v != %+v", agg, wantAgg)
	}
	if !pathsEqual(expandAll(m, sps), want) {
		t.Fatal("KeepCycles seg paths differ")
	}
}

// TestExplainTraceSeg: the trace's run-length field must agree with
// both the final hop path and the segment selector's output.
func TestExplainTraceSeg(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 5})
	n := mesh.NodeID(m.Size() - 1)
	for stream := uint64(0); stream < 8; stream++ {
		tr := sel.Explain(0, n, stream)
		if !pathsEqual([]mesh.Path{tr.Seg.Expand(m)}, []mesh.Path{tr.Path}) {
			t.Fatalf("stream %d: trace seg expands to %v, path %v", stream, tr.Seg.Expand(m), tr.Path)
		}
		sp := sel.SegPath(0, n, stream)
		if sp.Start != tr.Seg.Start || len(sp.Segs) != len(tr.Seg.Segs) {
			t.Fatalf("stream %d: SegPath %+v != trace seg %+v", stream, sp, tr.Seg)
		}
		for i := range sp.Segs {
			if sp.Segs[i] != tr.Seg.Segs[i] {
				t.Fatalf("stream %d: seg[%d] differs", stream, i)
			}
		}
	}
	// Trivial packet: single-node path, no segments.
	tr := sel.Explain(7, 7, 0)
	if tr.Seg.Start != 7 || len(tr.Seg.Segs) != 0 {
		t.Errorf("self trace seg = %+v", tr.Seg)
	}
}

// TestSegEdgeHookMatchesExpansion: the fused edge observer of the
// segment engine must report exactly the expanded paths' edges.
func TestSegEdgeHookMatchesExpansion(t *testing.T) {
	m := mesh.MustSquareTorus(2, 8)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 9})
	prob := workload.RandomPermutation(m, 2)
	want := make(map[mesh.EdgeID]int)
	paths, _ := sel.SelectAll(prob.Pairs)
	for _, p := range paths {
		m.PathEdges(p, func(e mesh.EdgeID) { want[e]++ })
	}
	got := make(map[mesh.EdgeID]int)
	sps := make([]mesh.SegPath, len(prob.Pairs))
	sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps, Hooks: Hooks{
		Edge: func(_ int, e mesh.EdgeID) { got[e]++ },
	}})
	if len(got) != len(want) {
		t.Fatalf("edge sets differ: %d vs %d", len(got), len(want))
	}
	for e, n := range want {
		if got[e] != n {
			t.Fatalf("edge %d: seg load %d != hop load %d", e, got[e], n)
		}
	}
}

var segSink mesh.SegPath

// TestSegPathAllocsWarm: the warm segment hot path must allocate only
// the caller-owned Segs slice, staying under the same budget as the hop
// path.
func TestSegPathAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m := mesh.MustSquare(2, 32)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	s, d := mesh.NodeID(0), mesh.NodeID(m.Size()-1)
	for i := 0; i < 64; i++ {
		segSink = sel.SegPath(s, d, uint64(i%8))
	}
	avg := testing.AllocsPerRun(200, func() {
		segSink = sel.SegPath(s, d, 3)
	})
	if avg > maxPathAllocs {
		t.Errorf("Selector.SegPath allocates %.1f/op warm, budget %.1f", avg, maxPathAllocs)
	}
}

package core

import (
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// basePairs builds a deterministic test problem on m.
func basePairs(m *mesh.Mesh, n int, seed uint64) []mesh.Pair {
	p := workload.RandomPairs(m, n, seed)
	return p.Pairs
}

// TestSelectBaseComposition pins the sharded-gateway contract: routing
// a contiguous shard of a batch with the shard's global offset as
// stream0 yields byte-identical paths to one whole-batch call — for
// the hop engine, the segment engine, the k-sample engine, and the
// chunked arena engines, across uneven shard boundaries.
func TestSelectBaseComposition(t *testing.T) {
	m, err := mesh.New(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 257 // deliberately not a multiple of any shard count
	pairs := basePairs(m, n, 7)
	cuts := []int{0, 1, 40, 41, 129, 200, n} // uneven contiguous shards

	for _, seed := range []uint64{3, 17} {
		sel, err := NewSelector(m, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}

		wantHops := make([]mesh.Path, n)
		sel.Select(Request{Pairs: pairs, Workers: 2, Paths: wantHops})
		wantSegs := make([]mesh.SegPath, n)
		sel.Select(Request{Pairs: pairs, Workers: 2, Segs: wantSegs})

		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			shard := pairs[lo:hi]

			gotHops := make([]mesh.Path, hi-lo)
			sel.Select(Request{Pairs: shard, Base: uint64(lo), Workers: 2, Paths: gotHops})
			for i := range shard {
				if !pathsEqual([]mesh.Path{gotHops[i]}, []mesh.Path{wantHops[lo+i]}) {
					t.Fatalf("seed %d shard [%d,%d): hop path %d diverges from whole-batch call", seed, lo, hi, lo+i)
				}
			}

			gotSegs := make([]mesh.SegPath, hi-lo)
			sel.Select(Request{Pairs: shard, Base: uint64(lo), Workers: 2, Segs: gotSegs})
			for i := range shard {
				if !segPathEqual(gotSegs[i], wantSegs[lo+i]) {
					t.Fatalf("seed %d shard [%d,%d): seg path %d diverges from whole-batch call", seed, lo, hi, lo+i)
				}
			}

			gotArena := make([]mesh.SegPath, hi-lo)
			var ag SegArenaGroup
			sel.SelectChunkSegArenaBase(shard, uint64(lo), 0, hi-lo, 2, gotArena, &ag, SegHooks{})
			for i := range shard {
				if !segPathEqual(gotArena[i], wantSegs[lo+i]) {
					t.Fatalf("seed %d shard [%d,%d): arena seg path %d diverges", seed, lo, hi, lo+i)
				}
			}
			ag.Reset()
		}
	}
}

// TestSelectBaseCompositionKSample is TestSelectBaseComposition for the
// k-sample engines against a nonzero frozen snapshot: the scores depend
// only on (snapshot, candidate paths), and candidate streams derive
// from stream0+i, so sharding with the right offsets must reproduce the
// whole-batch commits exactly.
func TestSelectBaseCompositionKSample(t *testing.T) {
	m, err := mesh.New(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 181
	pairs := basePairs(m, n, 9)
	sel, err := NewSelector(m, Options{Seed: 5, KSample: 4})
	if err != nil {
		t.Fatal(err)
	}

	// A deterministic nonzero snapshot, so scoring actually discriminates.
	snap := make([]int64, m.EdgeSpace())
	for i := range snap {
		snap[i] = int64((i * 2654435761) % 17)
	}

	want := make([]mesh.SegPath, n)
	wantAgg, wantKS := sel.Select(Request{Pairs: pairs, Workers: 2, Snapshot: snap, Segs: want})

	cuts := []int{0, 61, 62, 150, n}
	var gotKS KStats
	var gotAgg Aggregate
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		shard := pairs[lo:hi]
		got := make([]mesh.SegPath, hi-lo)
		agg, ks := sel.Select(Request{Pairs: shard, Base: uint64(lo), Workers: 2, Snapshot: snap, Segs: got})
		gotKS.Merge(ks)
		gotAgg.Merge(agg)
		for i := range shard {
			if !segPathEqual(got[i], want[lo+i]) {
				t.Fatalf("shard [%d,%d): k-sample commit %d diverges from whole-batch call", lo, hi, lo+i)
			}
		}

		gotArena := make([]mesh.SegPath, hi-lo)
		var ag SegArenaGroup
		sel.SelectChunkKSegArenaBase(shard, snap, uint64(lo), 0, hi-lo, 2, gotArena, &ag, KSegHooks{})
		for i := range shard {
			if !segPathEqual(gotArena[i], want[lo+i]) {
				t.Fatalf("shard [%d,%d): arena k-sample commit %d diverges", lo, hi, lo+i)
			}
		}
		ag.Reset()
	}
	if gotKS != wantKS {
		t.Fatalf("sharded KStats %+v != whole-batch %+v", gotKS, wantKS)
	}
	if gotAgg != wantAgg {
		t.Fatalf("sharded Aggregate %+v != whole-batch %+v", gotAgg, wantAgg)
	}
}

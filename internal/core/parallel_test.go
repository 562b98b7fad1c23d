package core

import (
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// The parallel engine must be bit-for-bit deterministic: identical to
// the sequential result regardless of worker count.
func TestSelectAllParallelMatchesSequential(t *testing.T) {
	m := mesh.MustSquare(2, 32)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 5})
	prob := workload.RandomPermutation(m, 9)

	seq, aggSeq := sel.SelectAll(prob.Pairs)
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		par := make([]mesh.Path, len(prob.Pairs))
		aggPar, _ := sel.Select(Request{Pairs: prob.Pairs, Workers: workers, Paths: par})
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d paths", workers, len(par))
		}
		for i := range seq {
			if len(par[i]) != len(seq[i]) {
				t.Fatalf("workers=%d packet %d: length %d != %d",
					workers, i, len(par[i]), len(seq[i]))
			}
			for j := range seq[i] {
				if par[i][j] != seq[i][j] {
					t.Fatalf("workers=%d packet %d: node mismatch at %d", workers, i, j)
				}
			}
		}
		if aggPar != aggSeq {
			t.Errorf("workers=%d: aggregate %+v != %+v", workers, aggPar, aggSeq)
		}
	}
}

func TestSelectAllParallelSmallInput(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	pairs := []mesh.Pair{{S: 0, T: 5}, {S: 3, T: 3}}
	paths := make([]mesh.Path, len(pairs))
	agg, _ := sel.Select(Request{Pairs: pairs, Workers: 8, Paths: paths})
	if len(paths) != 2 || agg.Packets != 2 {
		t.Fatalf("paths=%d agg=%+v", len(paths), agg)
	}
	for i, p := range paths {
		if err := m.Validate(p, pairs[i].S, pairs[i].T); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectAllParallelEmpty(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	paths := []mesh.Path{}
	agg, ks := sel.Select(Request{Workers: 4, Paths: paths})
	if len(paths) != 0 || agg.Packets != 0 || ks.Candidates != 0 {
		t.Fatalf("paths=%d agg=%+v ks=%+v", len(paths), agg, ks)
	}
}

// Routing a batch in arbitrary deadline-check slices — pairs[lo:hi]
// with Base lo — must reproduce the whole-slice result bit-for-bit.
func TestSelectRangeParallelIntoChunked(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 9})
	prob := workload.RandomPermutation(m, 9)
	whole := make([]mesh.Path, len(prob.Pairs))
	aggWhole, _ := sel.Select(Request{Pairs: prob.Pairs, Paths: whole})

	for _, chunk := range []int{1, 7, 64, len(prob.Pairs), 10 * len(prob.Pairs)} {
		chunked := make([]mesh.Path, len(prob.Pairs))
		var aggChunked Aggregate
		for lo := 0; lo < len(prob.Pairs); lo += chunk {
			hi := lo + chunk
			if hi > len(prob.Pairs) {
				hi = len(prob.Pairs)
			}
			cagg, _ := sel.Select(Request{Pairs: prob.Pairs[lo:hi], Base: uint64(lo), Workers: 3, Paths: chunked[lo:hi]})
			aggChunked.Merge(cagg)
		}
		for i := range whole {
			if len(whole[i]) != len(chunked[i]) {
				t.Fatalf("chunk=%d packet %d: length %d != %d", chunk, i, len(chunked[i]), len(whole[i]))
			}
			for j := range whole[i] {
				if whole[i][j] != chunked[i][j] {
					t.Fatalf("chunk=%d packet %d: node mismatch at %d", chunk, i, j)
				}
			}
		}
		if aggChunked != aggWhole {
			t.Errorf("chunk=%d: aggregate %+v != %+v", chunk, aggChunked, aggWhole)
		}
	}
}

// TestSelectRangeParallelIntoBounds: a malformed Request — no output,
// a short output, both outputs, or a hook of the other form — panics
// before any packet is routed.
func TestSelectRangeParallelIntoBounds(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	pairs := []mesh.Pair{{S: 0, T: 5}, {S: 3, T: 9}}
	paths := make([]mesh.Path, len(pairs))
	sps := make([]mesh.SegPath, len(pairs))
	onSeg := func(int, mesh.Pair, mesh.SegPath, Stats) {}
	onPath := func(int, mesh.Pair, mesh.Path, Stats) {}
	for name, req := range map[string]Request{
		"no output":    {Pairs: pairs},
		"short paths":  {Pairs: pairs, Paths: paths[:1]},
		"short segs":   {Pairs: pairs, Segs: sps[:1]},
		"both outputs": {Pairs: pairs, Paths: paths, Segs: sps},
		"seg hook":     {Pairs: pairs, Paths: paths, Hooks: Hooks{Seg: onSeg}},
		"path hook":    {Pairs: pairs, Segs: sps, Hooks: Hooks{Path: onPath}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			sel.Select(req)
		}()
	}
}

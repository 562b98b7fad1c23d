package obliviousmesh_test

import (
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/workload"
)

// TestSoakLargePermutation routes a full 128x128 permutation (16384
// packets) through the parallel engine and checks every invariant at
// scale: path validity, the Theorem 3.4 stretch bound, the Theorem 3.9
// congestion envelope, and bit budgets — under both chain backends
// (none, table), which must stay byte-identical to each other even at
// this scale. Guarded by -short.
func TestSoakLargePermutation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	const side = 128
	m := mesh.MustSquare(2, side)
	dc := decomp.MustNew(m, decomp.Mode2D)
	prob := workload.RandomPermutation(m, 123)

	var golden []mesh.Path
	var goldenAgg core.Aggregate
	for _, src := range []core.ChainSource{core.ChainSourceNone, core.ChainSourceTable} {
		sel := core.MustNewSelector(m, core.Options{
			Variant: core.Variant2D, Seed: 99, ChainSource: src,
		})
		paths := make([]mesh.Path, prob.N())
		agg, _ := sel.Select(core.Request{Pairs: prob.Pairs, Paths: paths})
		if agg.Packets != prob.N() {
			t.Fatalf("%v: routed %d/%d", src, agg.Packets, prob.N())
		}
		if golden == nil {
			// First backend carries the full invariant audit; the others
			// must match it exactly, so auditing them again proves nothing.
			golden, goldenAgg = paths, agg
			for i, p := range paths {
				if err := m.Validate(p, prob.Pairs[i].S, prob.Pairs[i].T); err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
			}
			maxStretch, _ := metrics.StretchStats(m, paths)
			if maxStretch > 64 {
				t.Errorf("stretch %v > 64 at scale", maxStretch)
			}
			c := metrics.Congestion(m, paths)
			lb := metrics.CongestionLowerBound(dc, prob.Pairs)
			if ratio := float64(c) / (float64(lb) * 14); ratio > 2 { // log2(16384) = 14
				t.Errorf("C/(LB log n) = %v at scale", ratio)
			}
			// Lemma 5.4 budget: generous 2x headroom over the asymptotic form.
			if agg.MeanBits() > 4*2*14 { // ~ 4 * d * log2(D*sqrt(d)) with D<=254
				t.Errorf("mean bits %v beyond the Lemma 5.4 envelope", agg.MeanBits())
			}
			t.Logf("soak: C=%d LB=%d maxStretch=%.1f meanBits=%.1f",
				c, lb, maxStretch, agg.MeanBits())
			continue
		}
		if agg != goldenAgg {
			t.Fatalf("%v: aggregate %+v differs from golden %+v", src, agg, goldenAgg)
		}
		for i := range paths {
			if len(paths[i]) != len(golden[i]) {
				t.Fatalf("%v: packet %d path length differs from golden", src, i)
			}
			for j := range paths[i] {
				if paths[i][j] != golden[i][j] {
					t.Fatalf("%v: packet %d diverges from golden at hop %d", src, i, j)
				}
			}
		}
	}
}

// TestDifferential2DVariants cross-checks the two constructions on the
// same 2-D mesh: the §3 specialized algorithm and the §4 general one
// must both produce valid, bounded-stretch paths; their stretch
// distributions may differ (different bridge rules) but both respect
// the theorem envelopes.
func TestDifferential2DVariants(t *testing.T) {
	m := mesh.MustSquare(2, 32)
	a := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 5})
	b := core.MustNewSelector(m, core.Options{Variant: core.VariantGeneral, Seed: 5})
	prob := workload.RandomPairs(m, 2000, 17)
	for i, pr := range prob.Pairs {
		if pr.S == pr.T {
			continue
		}
		pa, sa := a.PathStats(pr.S, pr.T, uint64(i))
		pb, sb := b.PathStats(pr.S, pr.T, uint64(i))
		if err := m.Validate(pa, pr.S, pr.T); err != nil {
			t.Fatalf("2D variant: %v", err)
		}
		if err := m.Validate(pb, pr.S, pr.T); err != nil {
			t.Fatalf("general variant: %v", err)
		}
		dist := float64(m.Dist(pr.S, pr.T))
		if float64(sa.RawLen)/dist > 64 {
			t.Fatalf("2D variant stretch blown on pair %d", i)
		}
		if float64(sb.RawLen)/dist > 200 { // 50 d^2 with d=2
			t.Fatalf("general variant stretch blown on pair %d", i)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// cacheEquivCases is the variant matrix of the golden-equality suite:
// every construction the selector supports, on meshes and tori, with
// the §5.3 reuse scheme on and off.
func cacheEquivCases() []struct {
	name string
	m    *mesh.Mesh
	opt  Options
} {
	return []struct {
		name string
		m    *mesh.Mesh
		opt  Options
	}{
		{"2d", mesh.MustSquare(2, 16), Options{Variant: Variant2D}},
		{"general-3d", mesh.MustSquare(3, 8), Options{Variant: VariantGeneral}},
		{"general-4d", mesh.MustSquare(4, 4), Options{Variant: VariantGeneral}},
		{"torus-2d", mesh.MustSquareTorus(2, 16), Options{Variant: Variant2D}},
		{"torus-general", mesh.MustSquareTorus(3, 8), Options{Variant: VariantGeneral}},
		{"disable-bridges", mesh.MustSquare(2, 16), Options{Variant: Variant2D, DisableBridges: true}},
		{"fresh-bits", mesh.MustSquare(2, 16), Options{Variant: Variant2D, FreshBits: true}},
		{"fixed-dim-order", mesh.MustSquare(2, 16), Options{Variant: Variant2D, FixedDimOrder: true}},
		{"bridge-factor", mesh.MustSquare(3, 8), Options{Variant: VariantGeneral, BridgeFactor: 0.5}},
		{"non-pow2", mesh.MustSquare(2, 12), Options{Variant: Variant2D}},
	}
}

// The TestChainCache* tests predate the compiled table: they pinned
// the LRU chain cache, once the default backend, against per-packet
// recomputation. The cache is gone; they now pin whatever zero Options
// select — the compiled table — against the ChainSourceNone reference.

// TestChainCacheGoldenEquality: the default chain backend and
// per-packet recomputation must produce byte-identical paths and
// identical Aggregates for identical (seed, stream, s, t), across every
// variant and multiple seeds, on cold and warm passes — the acceptance
// bar that lets the invariant engine audit the default backend.
func TestChainCacheGoldenEquality(t *testing.T) {
	for _, c := range cacheEquivCases() {
		for _, seed := range []uint64{1, 42, 7777} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				optD := c.opt
				optD.Seed = seed
				optN := optD
				optN.ChainSource = ChainSourceNone

				selD := MustNewSelector(c.m, optD)
				selN := MustNewSelector(c.m, optN)
				if _, ok := selD.RouteTableStats(); !ok {
					t.Fatal("the default backend should be the compiled table")
				}
				if _, ok := selN.RouteTableStats(); ok {
					t.Fatal("ChainSourceNone built a table")
				}

				prob := workload.RandomPermutation(c.m, seed+3)
				pathsN, aggN := selN.SelectAll(prob.Pairs)
				for _, label := range []string{"cold", "warm"} {
					pathsD, aggD := selD.SelectAll(prob.Pairs)
					if !pathsEqual(pathsD, pathsN) {
						t.Fatalf("%s default-backend paths differ from recompute", label)
					}
					if aggD != aggN {
						t.Fatalf("%s default-backend aggregate %+v != recompute %+v", label, aggD, aggN)
					}
				}
			})
		}
	}
}

// TestChainCacheChainIdentity: Chain must return structurally identical
// chains under the default backend and under recomputation, and
// repeated calls must return equal boxes.
func TestChainCacheChainIdentity(t *testing.T) {
	for _, c := range cacheEquivCases() {
		t.Run(c.name, func(t *testing.T) {
			optN := c.opt
			optN.ChainSource = ChainSourceNone
			selD := MustNewSelector(c.m, c.opt)
			selN := MustNewSelector(c.m, optN)
			n := mesh.NodeID(c.m.Size() - 1)
			for _, pr := range []mesh.Pair{{S: 0, T: n}, {S: n / 3, T: n / 2}, {S: n, T: 0}} {
				chD, brD := selD.Chain(pr.S, pr.T)
				chN, brN := selN.Chain(pr.S, pr.T)
				again, _ := selD.Chain(pr.S, pr.T)
				if len(chD) != len(chN) || len(again) != len(chD) {
					t.Fatalf("pair %v: chain len %d (again %d) != recompute %d", pr, len(chD), len(again), len(chN))
				}
				for i := range chD {
					if !chD[i].Equal(chN[i]) || !again[i].Equal(chD[i]) {
						t.Fatalf("pair %v: chain[%d] %v (again %v) != %v", pr, i, chD[i], again[i], chN[i])
					}
				}
				if !brD.Box.Equal(brN.Box) || brD.Level != brN.Level || brD.Type != brN.Type {
					t.Fatalf("pair %v: bridge %+v != %+v", pr, brD, brN)
				}
			}
		})
	}
}

// TestChainCacheParallelEquality: the parallel engine sharing one
// default-backend selector must match the serial recomputed paths bit
// for bit (run under -race this doubles as the concurrency check of
// the shared read-only table and the pooled scratch).
func TestChainCacheParallelEquality(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 4})
	selN := MustNewSelector(m, Options{Variant: Variant2D, Seed: 4, ChainSource: ChainSourceNone})
	prob := workload.RandomPermutation(m, 8)
	want, wantAgg := selN.SelectAll(prob.Pairs)
	for round := 0; round < 3; round++ {
		got := make([]mesh.Path, len(prob.Pairs))
		agg, _ := sel.Select(Request{Pairs: prob.Pairs, Workers: 8, Paths: got})
		if !pathsEqual(got, want) {
			t.Fatalf("round %d: parallel default-backend paths differ", round)
		}
		if agg != wantAgg {
			t.Fatalf("round %d: aggregate %+v != %+v", round, agg, wantAgg)
		}
	}
}

package core

import (
	"fmt"
	"strings"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

func segPathsEqual(a, b []mesh.SegPath) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || len(a[i].Segs) != len(b[i].Segs) {
			return false
		}
		for j := range a[i].Segs {
			if a[i].Segs[j] != b[i].Segs[j] {
				return false
			}
		}
	}
	return true
}

// tablePair builds the same configuration under both chain sources.
func tablePair(m *mesh.Mesh, opt Options) (tab, none *Selector) {
	optT := opt
	optT.ChainSource = ChainSourceTable
	optN := opt
	optN.ChainSource = ChainSourceNone
	return MustNewSelector(m, optT), MustNewSelector(m, optN)
}

// exhaustiveChainCases is the matrix on which the table is compared
// with recomputation for every (s, t) pair.
func exhaustiveChainCases() []struct {
	name string
	m    *mesh.Mesh
	opt  Options
} {
	type tc = struct {
		name string
		m    *mesh.Mesh
		opt  Options
	}
	var out []tc
	for _, mc := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"side8", mesh.MustSquare(2, 8)},
		{"side16", mesh.MustSquare(2, 16)},
		{"torus16", mesh.MustSquareTorus(2, 16)},
	} {
		out = append(out,
			tc{mc.name + "/2d", mc.m, Options{Variant: Variant2D}},
			tc{mc.name + "/general-factor1", mc.m, Options{Variant: VariantGeneral, BridgeFactor: 1}},
			tc{mc.name + "/general-factor2", mc.m, Options{Variant: VariantGeneral, BridgeFactor: 2}},
			tc{mc.name + "/disable-bridges", mc.m, Options{Variant: Variant2D, DisableBridges: true}},
		)
	}
	return out
}

// TestRouteTableGoldenEquality: the compiled table and per-packet
// recomputation are evaluation strategies of one pure function. The
// exhaustive subtests compare the resolved chain — every box, the
// bridge's level, family and box, and the §5.3 reservoir size — for
// every (s, t) pair; the per-variant subtests compare the selected
// paths and aggregates for identical (seed, stream, s, t), on cold and
// warm passes.
func TestRouteTableGoldenEquality(t *testing.T) {
	for _, c := range exhaustiveChainCases() {
		c := c
		t.Run("exhaustive/"+c.name, func(t *testing.T) {
			selT, selN := tablePair(c.m, c.opt)
			scT, scN := selT.getScratch(), selN.getScratch()
			defer selT.putScratch(scT)
			defer selN.putScratch(scN)
			n := c.m.Size()
			for s := 0; s < n; s++ {
				for u := 0; u < n; u++ {
					got := selT.chainFor(mesh.NodeID(s), mesh.NodeID(u), scT)
					want := selN.chainFor(mesh.NodeID(s), mesh.NodeID(u), scN)
					if len(got.boxes) != len(want.boxes) {
						t.Fatalf("(%d,%d): chain len %d, want %d", s, u, len(got.boxes), len(want.boxes))
					}
					for i := range got.boxes {
						if !got.boxes[i].Equal(want.boxes[i]) {
							t.Fatalf("(%d,%d): chain[%d] = %v, want %v", s, u, i, got.boxes[i], want.boxes[i])
						}
					}
					if got.br.Level != want.br.Level || got.br.Type != want.br.Type || !got.br.Box.Equal(want.br.Box) {
						t.Fatalf("(%d,%d): bridge %+v, want %+v", s, u, got.br, want.br)
					}
					if got.capBits != want.capBits {
						t.Fatalf("(%d,%d): capBits %d, want %d", s, u, got.capBits, want.capBits)
					}
				}
			}
		})
	}
	for _, c := range cacheEquivCases() {
		for _, seed := range []uint64{1, 42, 7777} {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				opt := c.opt
				opt.Seed = seed
				selT, selN := tablePair(c.m, opt)
				if _, ok := selT.RouteTableStats(); !ok {
					t.Fatal("table source reports no table")
				}

				prob := workload.RandomPermutation(c.m, seed+3)
				wantP, wantAgg := selN.SelectAll(prob.Pairs)
				wantS, wantSAgg := selN.SelectAllSeg(prob.Pairs)
				for _, label := range []string{"cold", "warm"} {
					gotP, agg := selT.SelectAll(prob.Pairs)
					if !pathsEqual(gotP, wantP) {
						t.Fatalf("%s table paths differ from recompute", label)
					}
					if agg != wantAgg {
						t.Fatalf("%s table aggregate %+v != %+v", label, agg, wantAgg)
					}
					gotS, sagg := selT.SelectAllSeg(prob.Pairs)
					if !segPathsEqual(gotS, wantS) {
						t.Fatalf("%s table seg paths differ from recompute", label)
					}
					if sagg != wantSAgg {
						t.Fatalf("%s table seg aggregate %+v != %+v", label, sagg, wantSAgg)
					}
				}
			})
		}
	}
}

// TestRouteTableEngineEquality: table-mode output must be identical
// across the serial, parallel and chunked Seg engines for several
// worker counts, and match the recomputed golden output — the table is
// shared read-only state, so worker interleaving must not matter.
func TestRouteTableEngineEquality(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	opt := Options{Variant: Variant2D, Seed: 11}
	selT, selN := tablePair(m, opt)
	prob := workload.RandomPermutation(m, 21)
	want, wantAgg := selN.SelectAllSeg(prob.Pairs)

	for _, workers := range []int{1, 3, 8} {
		sps := make([]mesh.SegPath, len(prob.Pairs))
		agg, _ := selT.Select(Request{Pairs: prob.Pairs, Workers: workers, Segs: sps})
		if !segPathsEqual(sps, want) {
			t.Fatalf("workers=%d: parallel table seg paths differ", workers)
		}
		if agg != wantAgg {
			t.Fatalf("workers=%d: aggregate %+v != %+v", workers, agg, wantAgg)
		}

		// Chunked ranges, the batch server's dispatch shape.
		chunked := make([]mesh.SegPath, len(prob.Pairs))
		var chunkAgg Aggregate
		const chunk = 37
		for lo := 0; lo < len(prob.Pairs); lo += chunk {
			hi := lo + chunk
			if hi > len(prob.Pairs) {
				hi = len(prob.Pairs)
			}
			cagg, _ := selT.Select(Request{Pairs: prob.Pairs[lo:hi], Base: uint64(lo), Workers: workers, Segs: chunked[lo:hi]})
			chunkAgg.Merge(cagg)
		}
		if !segPathsEqual(chunked, want) {
			t.Fatalf("workers=%d: chunked table seg paths differ", workers)
		}
		if chunkAgg != wantAgg {
			t.Fatalf("workers=%d: chunked aggregate %+v != %+v", workers, chunkAgg, wantAgg)
		}
	}

	// Hop-path parallel engine against the serial recomputed paths.
	wantP, _ := selN.SelectAll(prob.Pairs)
	gotP := make([]mesh.Path, len(prob.Pairs))
	selT.Select(Request{Pairs: prob.Pairs, Workers: 6, Paths: gotP})
	if !pathsEqual(gotP, wantP) {
		t.Fatal("parallel table hop paths differ")
	}
}

// TestRouteTableChainIdentity: Chain and Explain must expose identical
// structure under both sources, and table-mode traces must stay valid
// after the scratch they were assembled in is reused.
func TestRouteTableChainIdentity(t *testing.T) {
	for _, c := range cacheEquivCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			selT, selN := tablePair(c.m, c.opt)
			n := mesh.NodeID(c.m.Size() - 1)
			for _, pr := range []mesh.Pair{{S: 0, T: n}, {S: n / 3, T: n / 2}, {S: n, T: 1}} {
				chT, brT := selT.Chain(pr.S, pr.T)
				chR, brR := selN.Chain(pr.S, pr.T)
				if len(chT) != len(chR) {
					t.Fatalf("pair %v: table chain len %d != %d", pr, len(chT), len(chR))
				}
				for i := range chT {
					if !chT[i].Equal(chR[i]) {
						t.Fatalf("pair %v: chain[%d] %v != %v", pr, i, chT[i], chR[i])
					}
				}
				if !brT.Box.Equal(brR.Box) || brT.Level != brR.Level || brT.Type != brR.Type {
					t.Fatalf("pair %v: bridge %+v != %+v", pr, brT, brR)
				}
			}
			// Retained traces must not be clobbered by later selections
			// reusing the same pooled scratch.
			tr1 := selT.Explain(0, n, 0)
			chain1 := cloneBoxes(tr1.Chain)
			selT.Explain(n/2, 1, 7)
			tr2 := selN.Explain(0, n, 0)
			if len(tr1.Chain) != len(tr2.Chain) {
				t.Fatalf("trace chain len %d != recompute %d", len(tr1.Chain), len(tr2.Chain))
			}
			for i := range tr1.Chain {
				if !tr1.Chain[i].Equal(chain1[i]) {
					t.Fatalf("trace chain[%d] mutated after scratch reuse", i)
				}
				if !tr1.Chain[i].Equal(tr2.Chain[i]) {
					t.Fatalf("trace chain[%d] %v != recompute %v", i, tr1.Chain[i], tr2.Chain[i])
				}
			}
		})
	}
}

// cloneBoxes deep-copies boxes, so a later comparison sees mutation of
// the originals' Lo/Hi backing too.
func cloneBoxes(boxes []mesh.Box) []mesh.Box {
	out := make([]mesh.Box, len(boxes))
	for i, b := range boxes {
		out[i] = mesh.Box{Lo: b.Lo.Clone(), Hi: b.Hi.Clone()}
	}
	return out
}

// TestChainHeldAcrossBatch: Chain and Explain results — chain boxes and
// bridge box alike — are the caller's own. Table-mode boxes assemble
// into pooled scratch memory, so a held result must survive a batch of
// other selections that reuse that scratch.
func TestChainHeldAcrossBatch(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 3})
	n := mesh.NodeID(m.Size() - 1)
	chain, br := sel.Chain(0, n)
	tr := sel.Explain(n, 0, 5)
	wantChain, wantBr := cloneBoxes(chain), cloneBoxes([]mesh.Box{br.Box})[0]
	wantTrace, wantTraceBr := cloneBoxes(tr.Chain), cloneBoxes([]mesh.Box{tr.Bridge.Box})[0]

	prob := workload.RandomPermutation(m, 17)
	sel.SelectAllSeg(prob.Pairs)
	sel.SelectAll(prob.Pairs)
	for i := 0; i < 32; i++ {
		sel.Chain(mesh.NodeID(i), mesh.NodeID(m.Size()-1-3*i))
		sel.Explain(mesh.NodeID(3*i), mesh.NodeID(i), uint64(i))
	}

	for _, held := range []struct {
		name               string
		boxes, wantBoxes   []mesh.Box
		bridge, wantBridge mesh.Box
	}{
		{"Chain", chain, wantChain, br.Box, wantBr},
		{"Explain", tr.Chain, wantTrace, tr.Bridge.Box, wantTraceBr},
	} {
		for i := range held.wantBoxes {
			if !held.boxes[i].Equal(held.wantBoxes[i]) {
				t.Fatalf("%s: held chain[%d] = %v, want %v", held.name, i, held.boxes[i], held.wantBoxes[i])
			}
		}
		if !held.bridge.Equal(held.wantBridge) {
			t.Fatalf("%s: held bridge box = %v, want %v", held.name, held.bridge, held.wantBridge)
		}
	}
}

// TestChainSourceValidation pins the Options surface: unknown sources
// are rejected, the removed cache source fails with a message naming
// it, and ParseChainSource round-trips the flag spellings.
func TestChainSourceValidation(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	if _, err := NewSelector(m, Options{Variant: Variant2D, ChainSource: ChainSource(99)}); err == nil {
		t.Fatal("unknown chain source accepted")
	}
	sel := MustNewSelector(m, Options{Variant: Variant2D})
	if _, ok := sel.RouteTableStats(); !ok {
		t.Fatal("zero Options built no table")
	}
	selN := MustNewSelector(m, Options{Variant: Variant2D, ChainSource: ChainSourceNone})
	if _, ok := selN.RouteTableStats(); ok {
		t.Fatal("ChainSourceNone built a table")
	}
	for _, s := range []string{"", "table", "none"} {
		cs, err := ParseChainSource(s)
		if err != nil {
			t.Fatalf("ParseChainSource(%q): %v", s, err)
		}
		if s != "" && cs.String() != s {
			t.Fatalf("ParseChainSource(%q).String() = %q", s, cs)
		}
	}
	if cs, _ := ParseChainSource(""); cs != ChainSourceTable {
		t.Fatalf(`ParseChainSource("") = %v, want table`, cs)
	}
	if _, err := ParseChainSource("cache"); err == nil || !strings.Contains(err.Error(), `"cache"`) {
		t.Fatalf(`ParseChainSource("cache") error %v, want one naming "cache"`, err)
	}
	for _, s := range []string{"lru", "default"} {
		if _, err := ParseChainSource(s); err == nil {
			t.Fatalf("ParseChainSource accepted %q", s)
		}
	}
}

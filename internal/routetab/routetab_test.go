package routetab

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
)

// refChain is the uncompiled construction the table must reproduce box
// for box: exactly what core.Selector.computeChain does, built here
// from the decomposition's public API.
func refChain(dc *decomp.Decomposition, cfg Config, s, t mesh.NodeID) ([]mesh.Box, decomp.Bridge) {
	m := dc.Mesh()
	sc, tc := m.CoordOf(s), m.CoordOf(t)
	switch {
	case cfg.Type1Only:
		h := 0
		for ; h <= dc.K(); h++ {
			if dc.Type1Containing(dc.LevelOf(h), sc).Contains(tc) {
				break
			}
		}
		br := decomp.Bridge{
			Box:   dc.Type1Containing(dc.LevelOf(h), sc),
			Level: dc.LevelOf(h),
			Type:  1,
		}
		if h == 0 {
			return []mesh.Box{br.Box}, br
		}
		chain := make([]mesh.Box, 0, 2*h+1)
		chain = append(chain, dc.Type1Chain(sc, 0, h-1)...)
		chain = append(chain, br.Box)
		chain = append(chain, dc.Type1Chain(tc, h-1, 0)...)
		return chain, br
	case cfg.DCA:
		return dc.BitonicChain2D(sc, tc)
	default:
		factor := cfg.BridgeFactor
		if factor <= 0 {
			factor = 1
		}
		return dc.BitonicChainDFactor(sc, tc, factor)
	}
}

func refCapBits(chain []mesh.Box) int {
	capBits := 0
	for _, b := range chain {
		if bl := ceilLog2(b.MaxSide()); bl > capBits {
			capBits = bl
		}
	}
	return capBits
}

type tabCase struct {
	name  string
	m     *mesh.Mesh
	mode  decomp.Mode
	cfg   Config
	pairs int // 0 = exhaustive; else strided subsample bound
}

func tabCases(t *testing.T) []tabCase {
	sq := func(d, side int) *mesh.Mesh { return mesh.MustSquare(d, side) }
	tor := func(d, side int) *mesh.Mesh { return mesh.MustSquareTorus(d, side) }
	return []tabCase{
		{name: "2d-8-dca", m: sq(2, 8), mode: decomp.Mode2D, cfg: Config{DCA: true}},
		{name: "2d-16-dca", m: sq(2, 16), mode: decomp.Mode2D, cfg: Config{DCA: true}, pairs: 20000},
		{name: "torus-2d-8-dca", m: tor(2, 8), mode: decomp.Mode2D, cfg: Config{DCA: true}},
		{name: "2d-8-general", m: sq(2, 8), mode: decomp.ModeGeneral, cfg: Config{}},
		{name: "torus-2d-8-general", m: tor(2, 8), mode: decomp.ModeGeneral, cfg: Config{}},
		{name: "3d-8-general", m: sq(3, 8), mode: decomp.ModeGeneral, cfg: Config{}, pairs: 40000},
		{name: "torus-3d-4-general", m: tor(3, 4), mode: decomp.ModeGeneral, cfg: Config{}},
		{name: "4d-4-general", m: sq(4, 4), mode: decomp.ModeGeneral, cfg: Config{}},
		{name: "2d-8-factor0.5", m: sq(2, 8), mode: decomp.ModeGeneral, cfg: Config{BridgeFactor: 0.5}},
		{name: "2d-8-factor2", m: sq(2, 8), mode: decomp.ModeGeneral, cfg: Config{BridgeFactor: 2}},
		{name: "2d-8-type1", m: sq(2, 8), mode: decomp.Mode2D, cfg: Config{Type1Only: true}},
		{name: "3d-4-type1", m: sq(3, 4), mode: decomp.ModeGeneral, cfg: Config{Type1Only: true}},
		{name: "nonpow2-2d-12-dca", m: sq(2, 12), mode: decomp.Mode2D, cfg: Config{DCA: true}},
		{name: "nonpow2-2d-6-general", m: sq(2, 6), mode: decomp.ModeGeneral, cfg: Config{}},
		{name: "nonpow2-3d-5-general", m: sq(3, 5), mode: decomp.ModeGeneral, cfg: Config{}},
	}
}

// TestChainMatchesDecomp compares the compiled table against the
// uncompiled construction for every (s, t) pair (subsampled on the
// larger meshes): chain boxes, bridge identity and reservoir size must
// match exactly — the table is a different evaluation strategy of the
// same function, not an approximation.
func TestChainMatchesDecomp(t *testing.T) {
	for _, tc := range tabCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dc, err := decomp.New(tc.m, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			tab := Build(dc, tc.cfg)
			n := tc.m.Size()
			stride := 1
			if tc.pairs > 0 && n*n > tc.pairs {
				stride = n*n/tc.pairs + 1
			}
			var buf Buf
			checked := 0
			for p := 0; p < n*n; p += stride {
				if err := checkChain(tab, dc, tc.cfg, &buf, mesh.NodeID(p/n), mesh.NodeID(p%n)); err != nil {
					t.Fatal(err)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no pairs checked")
			}
		})
	}
}

// checkChain compares one compiled chain with the uncompiled
// construction: every box, the bridge's level, family and box, and the
// reservoir size.
func checkChain(tab *Table, dc *decomp.Decomposition, cfg Config, buf *Buf, s, u mesh.NodeID) error {
	wantChain, wantBr := refChain(dc, cfg, s, u)
	got, gotBr, gotCap := tab.Chain(s, u, buf)
	if len(got) != len(wantChain) {
		return fmt.Errorf("(%d,%d): chain len %d, want %d", s, u, len(got), len(wantChain))
	}
	for i := range got {
		if !got[i].Equal(wantChain[i]) {
			return fmt.Errorf("(%d,%d): chain[%d] = %v, want %v", s, u, i, got[i], wantChain[i])
		}
	}
	if !gotBr.Box.Equal(wantBr.Box) || gotBr.Level != wantBr.Level || gotBr.Type != wantBr.Type {
		return fmt.Errorf("(%d,%d): bridge %+v, want %+v", s, u, gotBr, wantBr)
	}
	if want := refCapBits(wantChain); gotCap != want {
		return fmt.Errorf("(%d,%d): capBits %d, want %d", s, u, gotCap, want)
	}
	return nil
}

// TestChainReusesBuffer pins the zero-allocation contract of warm
// dispatch: with a warmed Buf, Chain does not allocate.
func TestChainReusesBuffer(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	dc := decomp.MustNew(m, decomp.Mode2D)
	tab := Build(dc, Config{DCA: true})
	var buf Buf
	pairs := [][2]mesh.NodeID{{0, 255}, {3, 97}, {200, 10}, {255, 0}}
	for _, p := range pairs {
		tab.Chain(p[0], p[1], &buf)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			tab.Chain(p[0], p[1], &buf)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Chain allocates %.1f times per round, want 0", allocs)
	}
}

// TestStats sanity-checks the compiled footprint figures: one 1-D
// interval per distinct box extent along an axis, and a footprint of
// kilobytes.
func TestStats(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	dc := decomp.MustNew(m, decomp.Mode2D)
	tab := Build(dc, Config{DCA: true})
	st := tab.Stats()
	if st.Levels != dc.Levels() {
		t.Fatalf("levels = %d, want %d", st.Levels, dc.Levels())
	}
	fams := 0
	for l := 0; l <= dc.K(); l++ {
		fams += dc.NumTypes(l)
	}
	if st.Families != fams {
		t.Fatalf("families = %d, want %d", st.Families, fams)
	}
	// Every family's intervals tile one axis, so the count per family is
	// the number of distinct Lo values of its boxes along dimension 0.
	var cells int64
	for l := 0; l <= dc.K(); l++ {
		lo := map[int]map[int]bool{}
		dc.EnumerateLevel(l, func(j int, b mesh.Box) {
			if lo[j] == nil {
				lo[j] = map[int]bool{}
			}
			lo[j][b.Lo[0]] = true
		})
		for _, xs := range lo {
			cells += int64(len(xs))
		}
	}
	if st.Cells != cells {
		t.Fatalf("cells = %d, want %d", st.Cells, cells)
	}
	if st.Bytes <= 0 || st.Bytes > 16<<10 {
		t.Fatalf("bytes = %d, want a few KiB", st.Bytes)
	}
	if s := fmt.Sprint(st); s == "" {
		t.Fatal("empty stats string")
	}
}

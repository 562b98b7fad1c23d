// Package routetab compiles the hierarchical decomposition into flat
// per-level interval tables. The bitonic chain a packet (s, t) routes
// through — climb boxes, bridge, §5.3 reservoir size — is a pure
// function of the mesh, the decomposition and the bridge rule, and
// every regular submesh is a cartesian product of one 1-D interval per
// dimension (the translation is diagonal and the mesh square), so the
// whole structure compresses to one 1-D table per (level, family):
//
//   - the dense id of the interval containing each coordinate value
//     x ∈ [0, side);
//   - each interval's clipped bounds (extended past side-1 on tori,
//     where translated boxes wrap), its clipped-end count and
//     ⌈log₂ length⌉.
//
// That is O(levels · families · side) small integers — about 100 KiB
// at side 1024. Because the boxes of one (level, family) partition the
// mesh, "does the box of s contain t" collapses to "do s and t share
// the interval id in every dimension", so the bridge search of
// §3.2/§4.1 is a table compare per level. The chain's boxes are then
// written straight into a caller-owned Buf: warm dispatch is coordinate
// decoding, index arithmetic and stores — no hashing, no locks, no
// allocation.
//
// A Table is immutable after Build and can be shared read-only across
// any number of goroutines; it rebuilds bit-identically on any backend
// from (mesh, options) in under a millisecond.
package routetab

import (
	"unsafe"

	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
)

// Config selects the bridge rule compiled into the table. It mirrors
// the selector options that shape chains (core.Options is the caller;
// the randomness options do not matter here — waypoint draws stay
// per-packet).
type Config struct {
	// DCA compiles the 2-D rule of §3.2: the bridge is the deepest
	// regular submesh containing both endpoints. Otherwise the §4.1
	// sized-bridge rule applies.
	DCA bool
	// BridgeFactor scales the §4.1 bridge size rule 2(d+1)·dist
	// (≤ 0 means the paper's factor 1). Ignored under DCA/Type1Only.
	BridgeFactor float64
	// Type1Only compiles the access-tree ablation: the bridge is the
	// lowest type-1 submesh of s containing t (DisableBridges).
	Type1Only bool
}

// famTab is the compiled form of one (level, family): the 1-D interval
// table shared by every dimension.
type famTab struct {
	cell   []int32 // per coordinate x ∈ [0, side): dense interval id
	lo, hi []int32 // per interval: clipped (torus: extended) bounds
	clips  []uint8 // per interval: clipped ends (open mesh)
	bits   []uint8 // per interval: ⌈log₂(hi-lo+1)⌉
	// corner marks a Mode2D translated family, whose boxes with ≥ 2
	// clipped ends in total are discarded (§3.1 corner rule).
	corner bool
}

// Table is a compiled routing table; build with Build, then read-only.
type Table struct {
	m       *mesh.Mesh
	cfg     Config
	d, k    int
	side    int
	wrapDim bool // square mesh: every dimension wraps or none does

	levels [][]famTab // [level][family-1]
	cells  int64      // 1-D intervals over all (level, family)
	bytes  int64      // resident footprint of all tables
}

// Build compiles dc under cfg. The decomposition has already validated
// the mesh (square, power-of-two side on tori), so Build cannot fail;
// cost is one pass over [0, side) per (level, family).
func Build(dc *decomp.Decomposition, cfg Config) *Table {
	m := dc.Mesh()
	t := &Table{
		m: m, cfg: cfg,
		d: m.Dim(), k: dc.K(), side: m.Side(0),
		wrapDim: m.WrapDim(0),
	}
	t.levels = make([][]famTab, dc.Levels())
	t.bytes = int64(unsafe.Sizeof(*t))
	for level := 0; level <= t.k; level++ {
		nt := dc.NumTypes(level)
		t.levels[level] = make([]famTab, nt)
		for j := 1; j <= nt; j++ {
			f := t.buildFamily(dc, level, j)
			t.levels[level][j-1] = f
			t.cells += int64(len(f.lo))
			t.bytes += int64(unsafe.Sizeof(f)) + int64(len(f.cell)+len(f.lo)+len(f.hi))*4 +
				int64(len(f.clips)+len(f.bits))
		}
	}
	return t
}

// buildFamily compiles one (level, family). The interval arithmetic
// replicates decomp.TypeContaining exactly (the equivalence is pinned
// by the exhaustive golden tests): the family's intervals are
// [a, a+ml-1] for every anchor a ≡ shift (mod ml), clipped to the mesh
// on open meshes; on tori the interval straddling 0 wraps and keeps
// its anchor in [0, side).
func (t *Table) buildFamily(dc *decomp.Decomposition, level, j int) famTab {
	ml := dc.SideAt(level)
	shift := ((j - 1) * dc.Lambda(level)) % ml
	wrap := t.m.Wrap()

	n := t.side/ml + 2
	f := famTab{
		cell:   make([]int32, t.side),
		lo:     make([]int32, 0, n),
		hi:     make([]int32, 0, n),
		clips:  make([]uint8, 0, n),
		bits:   make([]uint8, 0, n),
		corner: dc.Mode() == decomp.Mode2D && j > 1,
	}
	// Anchors run from the one covering coordinate 0, in (-ml, 0].
	a := shift
	if a > 0 {
		a -= ml
	}
	for ; a < t.side; a += ml {
		lo, hi, clips := a, a+ml-1, 0
		id := int32(len(f.lo))
		switch {
		case wrap && a < 0:
			lo, hi = a+t.side, a+t.side+ml-1
		case wrap && id > 0 && int(f.lo[0]) == a:
			id = 0 // back in the wrapped interval
		case !wrap:
			if lo < 0 {
				lo = 0
				clips++
			}
			if hi > t.side-1 {
				hi = t.side - 1
				clips++
			}
		}
		if id == int32(len(f.lo)) {
			f.lo = append(f.lo, int32(lo))
			f.hi = append(f.hi, int32(hi))
			f.clips = append(f.clips, uint8(clips))
			f.bits = append(f.bits, uint8(ceilLog2(hi-lo+1)))
		}
		for x := max(a, 0); x <= min(a+ml-1, t.side-1); x++ {
			f.cell[x] = id
		}
	}
	return f
}

// Buf is the caller-owned assembly space of Chain: the decoded
// endpoint coordinates and the chain's boxes, whose Lo/Hi slices point
// into one flat backing array. The zero value is ready to use; buffers
// grow to the longest chain seen and are then reused. One Buf serves
// one goroutine at a time, and every Chain call overwrites what the
// previous one returned.
type Buf struct {
	sc, tc  mesh.Coord
	chain   []mesh.Box
	backing []int
}

// contains reports whether the box of f around the coordinate vector
// sc also contains tc and is not a discarded corner.
func (f *famTab) contains(sc, tc mesh.Coord) bool {
	clips := 0
	for i := range sc {
		a := f.cell[sc[i]]
		if a != f.cell[tc[i]] {
			return false
		}
		clips += int(f.clips[a])
	}
	return !f.corner || clips < 2
}

// dist returns the wrap-aware L1 distance between two coordinate
// vectors (the same value as mesh.Dist on the node ids).
func (t *Table) dist(sc, tc mesh.Coord) int {
	total := 0
	for i := range sc {
		diff := sc[i] - tc[i]
		if diff < 0 {
			diff = -diff
		}
		if t.wrapDim && t.side-diff < diff {
			diff = t.side - diff
		}
		total += diff
	}
	return total
}

// Chain assembles the bitonic chain for (s, u) into b and returns it
// with the bridge and the chain's ⌈log₂ max side⌉ reservoir size — the
// same triple, box for box, that the uncompiled construction computes.
// The returned boxes, including the bridge's, alias b: they are valid
// until b's next use.
func (t *Table) Chain(s, u mesh.NodeID, b *Buf) ([]mesh.Box, decomp.Bridge, int) {
	if len(b.sc) != t.d {
		b.sc, b.tc = make(mesh.Coord, t.d), make(mesh.Coord, t.d)
	}
	sc, tc := b.sc, b.tc
	t.m.CoordInto(s, sc)
	t.m.CoordInto(u, tc)

	// Bridge (level, family) and climb height: type-1 boxes at heights
	// 0..climbTop on both sides of the bridge.
	brLevel, brFam := t.k, 0
	climbTop := -1
	switch {
	case t.cfg.Type1Only:
		// Access-tree ablation: lowest type-1 common ancestor.
		h := 0
		for ; h <= t.k && !t.levels[t.k-h][0].contains(sc, tc); h++ {
		}
		brLevel = t.k - h
		climbTop = h - 1
	case t.cfg.DCA:
		// §3.2: deepest regular submesh containing both endpoints; scan
		// from the leaves upward, families in order, first match wins.
	dca:
		for level := t.k; level >= 0; level-- {
			for fi := range t.levels[level] {
				if t.levels[level][fi].contains(sc, tc) {
					brLevel, brFam = level, fi
					break dca
				}
			}
		}
		climbTop = t.k - brLevel - 1
	default:
		// §4.1: bridge of side ≥ factor·2(d+1)·dist at height ĥ+1,
		// moving up a level whenever no family of the height contains
		// both endpoints (mesh-boundary fallback of Lemma 4.1).
		dist := t.dist(sc, tc)
		if dist == 0 {
			break // s = u: the chain is the leaf alone
		}
		factor := t.cfg.BridgeFactor
		if factor <= 0 {
			factor = 1
		}
		target := int(factor * float64(2*(t.d+1)*dist))
		if target < 1 {
			target = 1
		}
		height := min(ceilLog2(target)+1, t.k)
	sized:
		for bh := height; bh <= t.k; bh++ {
			for fi := range t.levels[t.k-bh] {
				if t.levels[t.k-bh][fi].contains(sc, tc) {
					brLevel, brFam = t.k-bh, fi
					break sized
				}
			}
		}
		climbTop = min(ceilLog2(dist), t.k-brLevel-1)
	}

	// Size the buffers once, so no box's Lo/Hi outlives a regrowth.
	n := 2*(climbTop+1) + 1
	if need := 2 * t.d * n; cap(b.backing) < need {
		b.backing = make([]int, need)
	}
	if cap(b.chain) < n {
		b.chain = make([]mesh.Box, n)
	}
	chain := b.chain[:n]
	capBits := 0
	for h := 0; h <= climbTop; h++ {
		capBits = t.put(chain, b.backing, h, &t.levels[t.k-h][0], sc, capBits)
	}
	capBits = t.put(chain, b.backing, climbTop+1, &t.levels[brLevel][brFam], sc, capBits)
	for h := climbTop; h >= 0; h-- {
		capBits = t.put(chain, b.backing, n-1-h, &t.levels[t.k-h][0], tc, capBits)
	}
	br := decomp.Bridge{Box: chain[climbTop+1], Level: brLevel, Type: brFam + 1}
	return chain, br, capBits
}

// put writes chain[i] as f's box around the coordinate vector c, its
// Lo/Hi carved from the i-th 2d-int slot of backing, and folds the
// box's reservoir size into capBits.
func (t *Table) put(chain []mesh.Box, backing []int, i int, f *famTab, c mesh.Coord, capBits int) int {
	d := t.d
	lo := backing[2*d*i : 2*d*i+d : 2*d*i+d]
	hi := backing[2*d*i+d : 2*d*(i+1) : 2*d*(i+1)]
	for dim, x := range c {
		id := f.cell[x]
		lo[dim], hi[dim] = int(f.lo[id]), int(f.hi[id])
		if bits := int(f.bits[id]); bits > capBits {
			capBits = bits
		}
	}
	chain[i] = mesh.Box{Lo: lo, Hi: hi}
	return capBits
}

// Stats reports the table's compiled size: 1-D intervals and resident
// bytes across all (level, family) tables.
func (t *Table) Stats() metrics.TableStats {
	fams := 0
	for _, l := range t.levels {
		fams += len(l)
	}
	return metrics.TableStats{
		Levels:   len(t.levels),
		Families: fams,
		Cells:    t.cells,
		Bytes:    t.bytes,
	}
}

// ceilLog2 returns ⌈log₂ v⌉ for v ≥ 1.
func ceilLog2(v int) int {
	b := 0
	for s := 1; s < v; s <<= 1 {
		b++
	}
	return b
}

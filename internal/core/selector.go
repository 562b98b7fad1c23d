// Package core implements the paper's primary contribution: the
// oblivious path-selection algorithm of §3.3 (two dimensions) and §4
// (d dimensions), here called algorithm H after §5.2.
//
// For a packet (s, t), the algorithm walks the bitonic chain of
// regular submeshes between the leaf of s and the leaf of t through a
// bridge submesh, selects a uniformly random node v_i in every chain
// submesh (v_0 = s, v_last = t), and concatenates dimension-by-
// dimension shortest subpaths between consecutive random nodes, with
// the dimensions visited in a per-packet random order. The algorithm
// is oblivious: each packet's path depends only on its own source,
// destination and private coin flips.
//
// The random-bit consumption of each packet is tracked exactly; by
// default the §5.3 reuse scheme is active (one dimension permutation
// per packet plus two coordinate reservoirs drawn in the largest chain
// submesh), giving the O(d·log(D√d)) bound of Lemma 5.4.
package core

import (
	"fmt"
	"sync"

	"obliviousmesh/internal/bitrand"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/routetab"
)

// ChainSource selects how the selector resolves the per-pair bitonic
// chain — the structural, randomness-free part of algorithm H.
type ChainSource int

const (
	// ChainSourceTable (the default) resolves chains from the compiled
	// per-level interval tables of internal/routetab: a build of
	// microseconds, a footprint of kilobytes, and lock-free,
	// allocation-free warm dispatch at every mesh size.
	ChainSourceTable ChainSource = iota
	// ChainSourceNone recomputes the chain from the decomposition for
	// every packet: the reference the golden-equality suites compare
	// the table against.
	ChainSourceNone
)

func (cs ChainSource) String() string {
	switch cs {
	case ChainSourceTable:
		return "table"
	case ChainSourceNone:
		return "none"
	}
	return fmt.Sprintf("ChainSource(%d)", int(cs))
}

// ParseChainSource parses a -chainsource flag value; the empty string
// means the default, ChainSourceTable.
func ParseChainSource(s string) (ChainSource, error) {
	switch s {
	case "", "table":
		return ChainSourceTable, nil
	case "none":
		return ChainSourceNone, nil
	case "cache":
		return 0, fmt.Errorf(`chain source "cache" was removed; use "table" (the default) or "none"`)
	}
	return 0, fmt.Errorf("unknown chain source %q (want table or none)", s)
}

// Variant selects between the paper's two constructions.
type Variant int

const (
	// Variant2D is the §3.3 algorithm: the bridge is the deepest
	// common ancestor in the access graph and the monotonic phases
	// climb every level. Requires a 2-dimensional mesh (Mode2D
	// decomposition).
	Variant2D Variant = iota
	// VariantGeneral is the §4 algorithm: the monotonic phases climb
	// type-1 submeshes to height ⌈log₂ dist⌉ and jump directly to a
	// bridge of side Θ(d·dist) chosen among the Θ(d) translated
	// families. Works in any dimension.
	VariantGeneral
)

func (v Variant) String() string {
	switch v {
	case Variant2D:
		return "H-2d"
	case VariantGeneral:
		return "H-general"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Options configure a Selector. The zero value is a valid 2-D
// configuration with all paper defaults.
type Options struct {
	Variant Variant

	// Seed is the master seed; per-packet streams are split from it.
	Seed uint64

	// FixedDimOrder disables the random dimension ordering and always
	// corrects dimension 0 first (ablation: the paper notes the random
	// ordering alone improves Maggs et al. by a factor of d).
	FixedDimOrder bool

	// DisableBridges restricts the construction to type-1 submeshes
	// only, turning H into access-tree routing in the style of Maggs
	// et al. [9]: near-optimal congestion, unbounded stretch
	// (ablation for E10 and the E7 baseline table).
	DisableBridges bool

	// FreshBits disables the §5.3 bit-reuse scheme and draws fresh
	// random bits for every intermediate node (the naive
	// O(d·log²(D√d)) scheme discussed before Lemma 5.4).
	FreshBits bool

	// KeepCycles skips the cycle-removal pass. The paper removes
	// cycles ("without loss of generality, the paths obtained are
	// acyclic", after Lemma 3.8); cycle removal never increases edge
	// loads.
	KeepCycles bool

	// BridgeFactor scales the §4.1 bridge size rule 2(d+1)·dist
	// (VariantGeneral only; 0 means the paper's factor 1). Exposed for
	// the E23 ablation of the paper's constant.
	BridgeFactor float64

	// ChainSource picks the chain backend: the compiled routing table
	// of internal/routetab (the zero value) or per-packet
	// recomputation. Both select byte-identical paths — they are
	// evaluation strategies for the same pure function, and the
	// golden-equality suite pins that.
	ChainSource ChainSource

	// KSample is the semi-oblivious candidate count of Select with a
	// Request.Snapshot (and of KSegPath): each packet draws
	// KSample independent algorithm-H candidates and commits the one
	// with the least maximum edge load under the caller's congestion
	// snapshot, ties broken by the lowest candidate index. 0 and 1 both
	// mean pure algorithm H — candidate 0 uses the packet's unmodified
	// randomness stream, so k=1 output is byte-identical to SelectAllSeg
	// (the golden contract TestKSampleGoldenK1 pins). Negative values
	// are rejected by NewSelector. Without a snapshot (SelectAll,
	// SelectAllSeg, Path, Select with a nil Request.Snapshot) KSample
	// is ignored: sampling needs a load snapshot.
	KSample int
}

// Stats reports per-packet accounting for one path selection.
type Stats struct {
	RandomBits   int64 // exact number of random bits consumed
	BridgeHeight int   // height of the bridge submesh used
	BridgeType   int   // family index of the bridge (1 = type-1)
	ChainLen     int   // number of submeshes on the bitonic chain
	RawLen       int   // path length before cycle removal
	Len          int   // final path length
}

// Selector selects oblivious paths on a square power-of-two mesh.
// A selector is safe for concurrent use: per-call scratch buffers come
// from an internal pool and the compiled table is read-only.
type Selector struct {
	m     *mesh.Mesh
	dc    *decomp.Decomposition
	opt   Options
	table *routetab.Table // compiled chains; nil under ChainSourceNone
	pool  sync.Pool       // *scratch
}

// NewSelector builds a selector for m with the given options.
func NewSelector(m *mesh.Mesh, opt Options) (*Selector, error) {
	mode := decomp.ModeGeneral
	if opt.Variant == Variant2D {
		mode = decomp.Mode2D
	}
	dc, err := decomp.New(m, mode)
	if err != nil {
		return nil, err
	}
	if opt.KSample < 0 {
		return nil, fmt.Errorf("core: Options.KSample must be >= 0 (got %d)", opt.KSample)
	}
	sel := &Selector{m: m, dc: dc, opt: opt}
	switch opt.ChainSource {
	case ChainSourceTable:
		sel.table = routetab.Build(dc, routetab.Config{
			DCA:          !opt.DisableBridges && opt.Variant == Variant2D,
			BridgeFactor: opt.BridgeFactor,
			Type1Only:    opt.DisableBridges,
		})
	case ChainSourceNone:
	default:
		return nil, fmt.Errorf("core: unknown chain source %v", opt.ChainSource)
	}
	sel.pool.New = func() interface{} { return sel.newScratch() }
	return sel, nil
}

// MustNewSelector is NewSelector but panics on error.
func MustNewSelector(m *mesh.Mesh, opt Options) *Selector {
	s, err := NewSelector(m, opt)
	if err != nil {
		panic(err)
	}
	return s
}

// Mesh returns the selector's mesh.
func (sel *Selector) Mesh() *mesh.Mesh { return sel.m }

// Decomposition returns the underlying decomposition.
func (sel *Selector) Decomposition() *decomp.Decomposition { return sel.dc }

// Options returns the selector's configuration.
func (sel *Selector) Options() Options { return sel.opt }

// Chain returns the bitonic chain of submeshes the algorithm would use
// for (s, t), and the bridge. Exposed for tests and diagnostics; the
// boxes are the caller's own.
func (sel *Selector) Chain(s, t mesh.NodeID) ([]mesh.Box, decomp.Bridge) {
	sc := sel.getScratch()
	ch := sel.chainFor(s, t, sc)
	chain, br := cloneChain(ch.boxes, ch.br)
	sel.putScratch(sc)
	return chain, br
}

// cloneChain deep-copies a chain and its bridge: table-mode boxes
// live in scratch memory that the next packet on the same scratch
// overwrites.
func cloneChain(chain []mesh.Box, br decomp.Bridge) ([]mesh.Box, decomp.Bridge) {
	out := make([]mesh.Box, len(chain))
	for i, b := range chain {
		out[i] = mesh.Box{Lo: b.Lo.Clone(), Hi: b.Hi.Clone()}
	}
	br.Box = mesh.Box{Lo: br.Box.Lo.Clone(), Hi: br.Box.Hi.Clone()}
	return out, br
}

// chainRef is a resolved bitonic chain: its boxes, the bridge and the
// precomputed §5.3 reservoir size.
type chainRef struct {
	boxes   []mesh.Box
	br      decomp.Bridge
	capBits int
}

// chainFor resolves the chain for (s, t) through the configured chain
// source. The chain is a pure function of the endpoints under a fixed
// selector configuration, which is what makes compilation sound: both
// sources return exactly the same boxes. Table-mode chains assemble
// into sc and are only valid until sc's next chainFor.
func (sel *Selector) chainFor(s, t mesh.NodeID, sc *scratch) chainRef {
	if sel.table != nil {
		chain, br, capBits := sel.table.Chain(s, t, &sc.tab)
		return chainRef{chain, br, capBits}
	}
	chain, br := sel.computeChain(s, t)
	return chainRef{chain, br, chainCapBits(chain)}
}

// computeChain builds the chain from the decomposition (the uncached
// construction).
func (sel *Selector) computeChain(s, t mesh.NodeID) ([]mesh.Box, decomp.Bridge) {
	sc, tc := sel.m.CoordOf(s), sel.m.CoordOf(t)
	switch {
	case sel.opt.DisableBridges:
		return sel.type1Chain(sc, tc)
	case sel.opt.Variant == Variant2D:
		return sel.dc.BitonicChain2D(sc, tc)
	default:
		factor := sel.opt.BridgeFactor
		if factor <= 0 {
			factor = 1
		}
		return sel.dc.BitonicChainDFactor(sc, tc, factor)
	}
}

// chainCapBits returns ⌈log₂(max side over the chain)⌉, the §5.3
// reservoir size (Lemma 5.4).
func chainCapBits(chain []mesh.Box) int {
	capBits := 0
	for _, b := range chain {
		if bl := ceilLog2(b.MaxSide()); bl > capBits {
			capBits = bl
		}
	}
	return capBits
}

// RouteTableStats returns the compiled routing table's size figures;
// ok is false under ChainSourceNone.
func (sel *Selector) RouteTableStats() (metrics.TableStats, bool) {
	if sel.table == nil {
		return metrics.TableStats{}, false
	}
	return sel.table.Stats(), true
}

// type1Chain is the access-tree chain (ablation): climb type-1
// submeshes of s until one contains t, then descend type-1 submeshes
// of t. This reproduces the tree hierarchy of Maggs et al. [9], whose
// stretch is unbounded (two neighbors straddling the top-level cut
// meet only at the root).
func (sel *Selector) type1Chain(sc, tc mesh.Coord) ([]mesh.Box, decomp.Bridge) {
	dc := sel.dc
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
}

// Path selects a path for packet (s, t). The stream identifier keys
// the packet's private randomness: two calls with the same
// (seed, stream, s, t) return the same path, and different streams are
// independent. Use the packet's index in the routing problem.
func (sel *Selector) Path(s, t mesh.NodeID, stream uint64) mesh.Path {
	p, _ := sel.PathStats(s, t, stream)
	return p
}

// PathStats lives in explain.go, next to Explain's independent
// hop-level construction that the invariant engine replays against it.

// drawWaypoints picks the random node v_i in every chain submesh and
// returns the waypoints' coordinates, d per waypoint, flat. v_0 = s
// and v_last = t always (their chain boxes are single nodes in the
// bitonic construction; in the access-tree ablation with h the common
// height the first and last boxes are the leaves as well). capBits is
// the chain's precomputed §5.3 reservoir size (ignored under
// FreshBits). Coordinates drawn in extended torus boxes are folded
// into [0, side). The returned slice aliases sc's waypoint buffer.
func (sel *Selector) drawWaypoints(chain []mesh.Box, capBits int, s, t mesh.NodeID, rng *bitrand.Source, sc *scratch) []int {
	d := sel.m.Dim()
	n := len(chain) * d
	if cap(sc.wp) < n {
		sc.wp = make([]int, n)
	}
	wp := sc.wp[:n]
	sel.m.CoordInto(s, wp[:d])
	sel.m.CoordInto(t, wp[n-d:])

	if sel.opt.FreshBits {
		for i := 1; i < len(chain)-1; i++ {
			c := wp[i*d : i*d+d]
			for dim := range c {
				c[dim] = sel.m.Fold(dim, chain[i].Lo[dim]+rng.Intn(chain[i].Side(dim)))
			}
		}
		return wp
	}

	// §5.3 reuse scheme: two reservoirs sized for the largest chain
	// submesh; consecutive submeshes alternate reservoirs so the two
	// endpoints of every subpath are independent. The reservoirs live
	// in the scratch and are refilled per packet — the same draws
	// NewReservoir performs, without the per-packet allocations.
	sc.r1.Refill(rng, capBits)
	sc.r2.Refill(rng, capBits)
	for i := 1; i < len(chain)-1; i++ {
		r := sc.r1
		if i%2 == 0 {
			r = sc.r2
		}
		c := wp[i*d : i*d+d]
		for dim := range c {
			c[dim] = sel.m.Fold(dim, chain[i].Lo[dim]+r.DrawDim(dim, chain[i].Side(dim)))
		}
	}
	return wp
}

// ceilLog2 returns ⌈log₂ v⌉ for v ≥ 1.
func ceilLog2(v int) int {
	b := 0
	for s := 1; s < v; s <<= 1 {
		b++
	}
	return b
}

// Aggregate accumulates per-packet stats over a routing problem.
type Aggregate struct {
	Packets         int
	TotalBits       int64
	MaxBits         int64
	MaxBridgeHeight int
	MaxLen          int
}

// Add folds one packet's stats into the aggregate.
func (a *Aggregate) Add(st Stats) {
	a.Packets++
	a.TotalBits += st.RandomBits
	if st.RandomBits > a.MaxBits {
		a.MaxBits = st.RandomBits
	}
	if st.BridgeHeight > a.MaxBridgeHeight {
		a.MaxBridgeHeight = st.BridgeHeight
	}
	if st.Len > a.MaxLen {
		a.MaxLen = st.Len
	}
}

// Merge folds another aggregate into a, for combining per-worker
// aggregates of a parallel run.
func (a *Aggregate) Merge(b Aggregate) {
	a.Packets += b.Packets
	a.TotalBits += b.TotalBits
	if b.MaxBits > a.MaxBits {
		a.MaxBits = b.MaxBits
	}
	if b.MaxBridgeHeight > a.MaxBridgeHeight {
		a.MaxBridgeHeight = b.MaxBridgeHeight
	}
	if b.MaxLen > a.MaxLen {
		a.MaxLen = b.MaxLen
	}
}

// MeanBits returns the mean number of random bits per packet.
func (a Aggregate) MeanBits() float64 {
	if a.Packets == 0 {
		return 0
	}
	return float64(a.TotalBits) / float64(a.Packets)
}

package core

import (
	"fmt"
	"strings"

	"obliviousmesh/internal/bitrand"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/routetab"
)

// Trace records every decision of one path selection: the bitonic
// chain, the bridge, the random waypoints, the per-hop staircase
// segments and the dimension order. Reconstructing the path from the
// trace (concatenate the segments, remove cycles) yields exactly
// Path(s, t, stream) — guaranteed by construction, since Explain runs
// the same code against the same randomness stream.
type Trace struct {
	S, T      mesh.NodeID
	Chain     []mesh.Box
	Bridge    decomp.Bridge
	Waypoints []mesh.NodeID
	Segments  []mesh.Path // Segments[i] connects Waypoints[i] to Waypoints[i+1]
	Perm      []int       // dimension correction order
	Stats     Stats
	Path      mesh.Path    // final (cycle-removed unless KeepCycles) path
	Seg       mesh.SegPath // run-length form of Path; what SegPath(s,t,stream) returns
}

// Explain selects the path for (s, t, stream) and returns the full
// decision trace.
func (sel *Selector) Explain(s, t mesh.NodeID, stream uint64) Trace {
	return sel.construct(s, t, stream, true)
}

// PathStats is Path plus exact accounting.
func (sel *Selector) PathStats(s, t mesh.NodeID, stream uint64) (mesh.Path, Stats) {
	sc := sel.getScratch()
	tr := sel.constructInto(s, t, stream, false, sc)
	sel.putScratch(sc)
	return tr.Path, tr.Stats
}

// scratch holds the per-worker reusable buffers of the fused batch
// path: the per-packet randomness source and §5.3 reservoirs, the raw
// (pre-cycle-removal) path, the waypoint, coordinate and
// dimension-permutation vectors, and the cycle-removal index map. One
// scratch serves one goroutine at a time; the buffers grow to the
// largest packet seen and are then reused, so steady-state routing
// allocates only the final path of each packet. Buffer reuse cannot
// change results: the randomness of a packet depends only on
// (seed, stream, s, t) and the rng is reseeded to exactly the Split
// state for every packet.
type scratch struct {
	rng    bitrand.Source
	raw    mesh.Path
	segs   []mesh.Seg   // run-length construction buffer
	segs2  []mesh.Seg   // recompression buffer for the cycle fallback
	segs3  []mesh.Seg   // second compression buffer: k-sample candidate double-buffering
	tab    routetab.Buf // table-mode chain assembly space
	wp     []mesh.NodeID
	c      mesh.Coord
	perm   []int
	r1, r2 *bitrand.Reservoir
	last   map[mesh.NodeID]int
	cyc    mesh.CycleBuf // dense cycle-excision state (segment engine)
	scores []int64       // per-candidate scores of the k-sample engine
}

// newScratch builds a scratch for one worker on sel's mesh.
func (sel *Selector) newScratch() *scratch {
	d := sel.m.Dim()
	return &scratch{
		c:    make(mesh.Coord, d),
		perm: make([]int, d),
		r1:   bitrand.NewReservoirBuf(d),
		r2:   bitrand.NewReservoirBuf(d),
		last: make(map[mesh.NodeID]int, 64),
	}
}

// getScratch leases a scratch from the selector's pool; putScratch
// returns it. Pooling makes the one-packet entry points (Path,
// PathStats, Explain, Session.Route) as allocation-lean as the batch
// engines, which hold one scratch per worker for a whole range.
func (sel *Selector) getScratch() *scratch   { return sel.pool.Get().(*scratch) }
func (sel *Selector) putScratch(sc *scratch) { sel.pool.Put(sc) }

// construct runs the path-selection algorithm once with pooled
// buffers; keepSegments additionally retains the per-hop structure for
// Explain. Scratch-aliasing trace fields are cloned before the scratch
// is released, so the returned trace is safe to retain.
func (sel *Selector) construct(s, t mesh.NodeID, stream uint64, keepSegments bool) Trace {
	sc := sel.getScratch()
	tr := sel.constructInto(s, t, stream, keepSegments, sc)
	tr.Waypoints = append([]mesh.NodeID(nil), tr.Waypoints...)
	tr.Perm = append([]int(nil), tr.Perm...)
	if tr.Chain != nil {
		tr.Chain, tr.Bridge = cloneChain(tr.Chain, tr.Bridge)
	}
	sel.putScratch(sc)
	return tr
}

// constructInto is the single construction code path shared by
// Explain, PathStats and the fused batch engines (SelectAllInto and
// friends); traces stay authoritative by construction, and buffer
// reuse lives here so every entry point selects bit-for-bit identical
// paths. Only Trace.Path and Trace.Segments are safe to retain across
// calls with the same scratch; Waypoints, Perm, Chain and Bridge.Box
// alias scratch memory (construct clones them before the scratch
// returns to the pool).
func (sel *Selector) constructInto(s, t mesh.NodeID, stream uint64, keepSegments bool, sc *scratch) Trace {
	if s == t {
		return Trace{
			S: s, T: t,
			Path:      mesh.Path{s},
			Seg:       mesh.SegPath{Start: s},
			Waypoints: []mesh.NodeID{s},
			Stats:     Stats{ChainLen: 1},
		}
	}
	ch, waypoints, perm := sel.prepare(s, t, stream, sc)

	tr := Trace{
		S: s, T: t,
		Bridge:    ch.br,
		Waypoints: waypoints,
		Perm:      perm,
	}
	var raw mesh.Path
	if keepSegments {
		// Cold path (Explain): materialize per-waypoint hop segments
		// for the trace alongside the full raw walk.
		raw = append(sc.raw[:0], s)
		for i := 1; i < len(waypoints); i++ {
			seg := sel.m.StaircasePath(waypoints[i-1], waypoints[i], perm)
			tr.Segments = append(tr.Segments, seg)
			raw = append(raw, seg[1:]...)
		}
		tr.Chain = ch.boxes
	} else {
		// Hot path: emit the dim-by-dim runs directly, then expand them
		// into the raw walk with pure stride arithmetic — no per-hop
		// Step call. The node sequence is identical by construction.
		segs := sc.segs[:0]
		for i := 1; i < len(waypoints); i++ {
			segs = sel.m.AppendStaircaseSegs(segs, waypoints[i-1], waypoints[i], perm)
		}
		sc.segs = segs
		raw = mesh.SegPath{Start: s, Segs: segs}.AppendExpand(sel.m, sc.raw[:0])
	}
	sc.raw = raw // keep the grown capacity for the next packet
	tr.Stats = Stats{
		RandomBits:   sc.rng.BitsUsed(),
		BridgeHeight: sel.dc.HeightOf(ch.br.Level),
		BridgeType:   ch.br.Type,
		ChainLen:     len(ch.boxes),
		RawLen:       raw.Len(),
	}
	var path mesh.Path
	if sel.opt.KeepCycles {
		path = append(make(mesh.Path, 0, len(raw)), raw...)
	} else {
		path = raw.RemoveCyclesReuse(sc.last)
	}
	tr.Stats.Len = path.Len()
	tr.Path = path
	if keepSegments {
		tr.Seg = path.Compress(sel.m)
	}
	return tr
}

// prepare runs the shared prelude of both path representations:
// resolve the chain, then draw the packet's randomness against it. The
// returned chain, waypoints and perm alias scratch memory.
func (sel *Selector) prepare(s, t mesh.NodeID, stream uint64, sc *scratch) (chainRef, []mesh.NodeID, []int) {
	ch := sel.chainFor(s, t, sc)
	waypoints, perm := sel.draw(s, t, stream, ch, sc)
	return ch, waypoints, perm
}

// draw reseeds the packet's randomness and draws the dimension order
// and the random waypoints in the resolved chain ch. Stream is the
// only input that varies between the k-sample candidates of one
// packet, which is why they share one chain resolution. The returned
// waypoints and perm alias scratch memory.
func (sel *Selector) draw(s, t mesh.NodeID, stream uint64, ch chainRef, sc *scratch) ([]mesh.NodeID, []int) {
	rng := &sc.rng
	rng.ReseedSplit(sel.opt.Seed, stream^(uint64(s)<<24)^uint64(t))
	d := sel.m.Dim()
	perm := sc.perm[:d]
	if sel.opt.FixedDimOrder {
		for i := range perm {
			perm[i] = i
		}
	} else {
		rng.PermInto(perm)
	}
	return sel.drawWaypoints(ch.boxes, ch.capBits, s, t, rng, sc), perm
}

// String renders the trace for human inspection.
func (tr Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet %d -> %d, bridge %v (level %d, family %d)\n",
		tr.S, tr.T, tr.Bridge.Box, tr.Bridge.Level, tr.Bridge.Type)
	fmt.Fprintf(&b, "dimension order %v, %d random bits\n", tr.Perm, tr.Stats.RandomBits)
	for i, box := range tr.Chain {
		fmt.Fprintf(&b, "  chain[%d] %v -> waypoint %d\n", i, box, tr.Waypoints[i])
	}
	fmt.Fprintf(&b, "raw length %d, final length %d\n", tr.Stats.RawLen, tr.Stats.Len)
	return b.String()
}

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
// Path(s, t, stream): Explain draws the same chain and randomness as
// the engines, and its hop-level cycle removal (RemoveCycles) is the
// reference the engines' loop erasure on runs is pinned to.
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
	return sel.construct(s, t, stream)
}

// PathStats is Path plus exact accounting. The hop path is the
// segment engine's final runs expanded into an exact-size path, so both
// representations select bit-for-bit identical paths.
func (sel *Selector) PathStats(s, t mesh.NodeID, stream uint64) (mesh.Path, Stats) {
	sc := sel.getScratch()
	runs, st, _, _ := sel.pick(s, t, stream, nil, sc)
	p := expandRuns(sel.m, s, runs, st)
	sel.putScratch(sc)
	return p, st
}

// scratch holds the per-worker reusable buffers of the engines: the
// per-packet randomness source and §5.3 reservoirs, the waypoint
// coordinates, the dimension permutation, the run buffers and the
// loop-erasure stack, plus the raw walk and index map of Explain's
// hop-level cycle removal. One scratch serves one goroutine at a time;
// the buffers grow to the largest packet seen and are then reused, so
// steady-state routing allocates only the final path of each packet.
// Buffer reuse cannot change results: the randomness of a packet
// depends only on (seed, stream, s, t) and the rng is reseeded to
// exactly the Split state for every packet.
type scratch struct {
	rng    bitrand.Source
	segs   []mesh.Seg    // raw run construction buffer
	segs2  []mesh.Seg    // final (loop-erased) runs
	segs3  []mesh.Seg    // second final-runs buffer: k-sample candidate double-buffering
	er     mesh.EraseBuf // loop-erasure piece stack
	tab    routetab.Buf  // table-mode chain assembly space
	wp     []int         // waypoint coordinates, d per waypoint
	perm   []int
	r1, r2 *bitrand.Reservoir
	raw    mesh.Path           // Explain: raw walk
	last   map[mesh.NodeID]int // Explain: cycle-removal index map
	scores []int64             // per-candidate scores of the k-sample engine
}

// newScratch builds a scratch for one worker on sel's mesh.
func (sel *Selector) newScratch() *scratch {
	d := sel.m.Dim()
	return &scratch{
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
// buffers and records the full trace for Explain. Scratch-aliasing
// trace fields are cloned before the scratch is released, so the
// returned trace is safe to retain.
func (sel *Selector) construct(s, t mesh.NodeID, stream uint64) Trace {
	sc := sel.getScratch()
	tr := sel.explainInto(s, t, stream, sc)
	tr.Perm = append([]int(nil), tr.Perm...)
	if tr.Chain != nil {
		tr.Chain, tr.Bridge = cloneChain(tr.Chain, tr.Bridge)
	}
	sel.putScratch(sc)
	return tr
}

// explainInto is Explain's construction: the same chain and randomness
// draw as the engines, then the per-waypoint hop staircases, their
// concatenation and hop-level cycle removal (RemoveCyclesReuse). It
// shares no excision code with the engines, which is what lets the
// invariant engine replay it as an independent oracle for their
// output. Perm, Chain and Bridge.Box alias scratch memory.
func (sel *Selector) explainInto(s, t mesh.NodeID, stream uint64, sc *scratch) Trace {
	if s == t {
		return Trace{
			S: s, T: t,
			Path:      mesh.Path{s},
			Seg:       mesh.SegPath{Start: s},
			Waypoints: []mesh.NodeID{s},
			Stats:     Stats{ChainLen: 1},
		}
	}
	ch := sel.chainFor(s, t, sc)
	wp, perm := sel.draw(s, t, stream, ch, sc)
	d := sel.m.Dim()
	tr := Trace{
		S: s, T: t,
		Chain:     ch.boxes,
		Bridge:    ch.br,
		Waypoints: make([]mesh.NodeID, len(ch.boxes)),
		Perm:      perm,
	}
	for i := range tr.Waypoints {
		tr.Waypoints[i] = sel.m.Node(wp[i*d : i*d+d])
	}
	raw := append(sc.raw[:0], s)
	for i := 1; i < len(tr.Waypoints); i++ {
		seg := sel.m.StaircasePath(tr.Waypoints[i-1], tr.Waypoints[i], perm)
		tr.Segments = append(tr.Segments, seg)
		raw = append(raw, seg[1:]...)
	}
	sc.raw = raw // keep the grown capacity for the next packet
	tr.Stats = Stats{
		RandomBits:   sc.rng.BitsUsed(),
		BridgeHeight: sel.dc.HeightOf(ch.br.Level),
		BridgeType:   ch.br.Type,
		ChainLen:     len(ch.boxes),
		RawLen:       raw.Len(),
	}
	if sel.opt.KeepCycles {
		tr.Path = append(make(mesh.Path, 0, len(raw)), raw...)
	} else {
		tr.Path = raw.RemoveCyclesReuse(sc.last)
	}
	tr.Stats.Len = tr.Path.Len()
	tr.Seg = tr.Path.Compress(sel.m)
	return tr
}

// draw reseeds the packet's randomness and draws the dimension order
// and the random waypoints in the resolved chain ch. Stream is the
// only input that varies between the k-sample candidates of one
// packet, which is why they share one chain resolution. The returned
// waypoint coordinates (d per waypoint) and perm alias scratch memory.
func (sel *Selector) draw(s, t mesh.NodeID, stream uint64, ch chainRef, sc *scratch) ([]int, []int) {
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

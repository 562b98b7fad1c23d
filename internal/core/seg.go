package core

import (
	"fmt"

	"obliviousmesh/internal/mesh"
)

// SegPath selects the run-length path for packet (s, t, stream). The
// result is exactly Path(s, t, stream).Compress — same randomness, same
// cycle removal — but it is produced straight from Algorithm H's
// dim-by-dim construction without ever materializing the hop sequence,
// which is what takes BenchmarkPathSelect2D from O(path length) to
// O(d · chain length) bytes per op.
func (sel *Selector) SegPath(s, t mesh.NodeID, stream uint64) mesh.SegPath {
	sp, _ := sel.SegPathStats(s, t, stream)
	return sp
}

// SegPathStats is SegPath plus exact per-packet accounting. The stats
// are identical to PathStats' for the same packet.
func (sel *Selector) SegPathStats(s, t mesh.NodeID, stream uint64) (mesh.SegPath, Stats) {
	sc := sel.getScratch()
	sp, st := sel.constructSegInto(s, t, stream, sc)
	sel.putScratch(sc)
	return sp, st
}

// constructSegInto is the segment-native construction: the shared
// chain resolution and randomness draw (so randomness consumption
// matches the hop path bit for bit), runs emitted directly per
// dimension, and loop erasure on run geometry (mesh.LoopErase), so
// outputs agree with Compress(PathStats(...)) in every case.
func (sel *Selector) constructSegInto(s, t mesh.NodeID, stream uint64, sc *scratch) (mesh.SegPath, Stats) {
	return sel.constructSegArena(s, t, stream, nil, sc)
}

// constructSegArena is constructSegInto with the committed copy placed
// by the caller: a nil arena keeps the private exact-size heap copy,
// a non-nil one carves the result's Segs from its slab — in which case
// the path is valid only until the arena's next Reset. Randomness,
// compression, and stats are identical either way.
func (sel *Selector) constructSegArena(s, t mesh.NodeID, stream uint64, ar *SegArena, sc *scratch) (mesh.SegPath, Stats) {
	if s == t {
		return mesh.SegPath{Start: s}, Stats{ChainLen: 1}
	}
	var st Stats
	sc.segs2, st = sel.selectRuns(s, t, stream, sel.chainFor(s, t, sc), sc.segs2, sc)
	return mesh.SegPath{Start: s, Segs: segCopy(ar, sc.segs2)}, st
}

// selectRuns draws the packet's randomness against the resolved chain
// ch (ignored when s == t), builds the raw dim-by-dim runs between
// consecutive waypoints and writes the packet's final runs into
// buf[:0]: the loop erasure of the raw walk, or the raw runs
// themselves under KeepCycles. It returns them — grown from buf, so
// they alias it — with complete Stats. The k-sample engine races
// candidates through alternating bufs; everyone else passes sc.segs2.
func (sel *Selector) selectRuns(s, t mesh.NodeID, stream uint64, ch chainRef, buf []mesh.Seg, sc *scratch) ([]mesh.Seg, Stats) {
	if s == t {
		return buf[:0], Stats{ChainLen: 1}
	}
	wp, perm := sel.draw(s, t, stream, ch, sc)
	d := sel.m.Dim()
	segs := sc.segs[:0]
	raw := 0
	for i := d; i < len(wp); i += d {
		var n int
		segs, n = sel.m.AppendStaircaseSegs(segs, wp[i-d:i], wp[i:i+d], perm)
		raw += n
	}
	sc.segs = segs
	st := Stats{
		RandomBits:   sc.rng.BitsUsed(),
		BridgeHeight: sel.dc.HeightOf(ch.br.Level),
		BridgeType:   ch.br.Type,
		ChainLen:     len(ch.boxes),
		RawLen:       raw,
		Len:          raw,
	}
	if sel.opt.KeepCycles {
		return append(buf[:0], segs...), st
	}
	buf, st.Len = sel.m.LoopErase(s, segs, &sc.er, buf)
	return buf, st
}

// SegObserver receives each whole selected run-length path (with its
// per-packet stats) immediately after construction — the segment
// counterpart of PathObserver. The SegPath is caller-owned and safe to
// retain; with the parallel engine the observer is invoked
// concurrently from all workers and must be safe for concurrent use.
type SegObserver func(packet int, pr mesh.Pair, sp mesh.SegPath, st Stats)

// SegHooks bundles the optional observers of the segment batch
// engines. The zero value disables both; nil fields cost nothing.
type SegHooks struct {
	Edge Observer
	Seg  SegObserver
}

// SelectAllSeg selects the run-length path for every pair of a routing
// problem; the i-th packet uses stream i. Expanding each result yields
// exactly SelectAll's paths, and the aggregate matches too.
func (sel *Selector) SelectAllSeg(pairs []mesh.Pair) ([]mesh.SegPath, Aggregate) {
	sps := make([]mesh.SegPath, len(pairs))
	agg := sel.SelectAllSegInto(pairs, sps, SegHooks{})
	return sps, agg
}

// SelectAllSegInto is SelectAllSeg into a caller-provided slice
// (len(sps) ≥ len(pairs)), with optional fused observers: h.Edge
// receives every edge via the run walker (no expansion) and h.Seg each
// finished SegPath with its stats.
func (sel *Selector) SelectAllSegInto(pairs []mesh.Pair, sps []mesh.SegPath, h SegHooks) Aggregate {
	if len(sps) < len(pairs) {
		panic(fmt.Sprintf("core: SelectAllSegInto: seg slice too short (%d < %d)", len(sps), len(pairs)))
	}
	return sel.selectSegRange(pairs, sps, 0, 0, len(pairs), h)
}

// selectSegRange routes pairs[lo:hi] into sps[lo:hi] with one scratch —
// the per-worker body of the serial and parallel segment engines.
// stream0 shifts packet i's randomness stream to stream0+i (0 for
// whole-batch calls; see SelectRangeParallelBaseInto).
func (sel *Selector) selectSegRange(pairs []mesh.Pair, sps []mesh.SegPath, stream0 uint64, lo, hi int, h SegHooks) Aggregate {
	sc := sel.getScratch()
	defer sel.putScratch(sc)
	var agg Aggregate
	for i := lo; i < hi; i++ {
		sp, st := sel.constructSegInto(pairs[i].S, pairs[i].T, stream0+uint64(i), sc)
		sps[i] = sp
		agg.Add(st)
		if h.Edge != nil {
			sel.m.SegPathEdges(sp, func(e mesh.EdgeID) { h.Edge(i, e) })
		}
		if h.Seg != nil {
			h.Seg(i, pairs[i], sp, st)
		}
	}
	return agg
}

// SelectAllParallelSegInto is SelectAllSegInto across `workers`
// goroutines with the worker-count semantics of SelectAllParallelInto;
// hooks are invoked concurrently from all workers and must be safe for
// concurrent use.
func (sel *Selector) SelectAllParallelSegInto(pairs []mesh.Pair, workers int, sps []mesh.SegPath, h SegHooks) Aggregate {
	return sel.SelectRangeParallelSegInto(pairs, 0, len(pairs), workers, sps, h)
}

// SelectRangeParallelSegInto routes pairs[lo:hi] into sps[lo:hi]
// across `workers` goroutines. Packet i keeps randomness stream i (the
// global index), so deadline-checked slices compose into exactly the
// paths of one whole-batch call — the property the routing service's
// chunked wire streaming relies on.
func (sel *Selector) SelectRangeParallelSegInto(pairs []mesh.Pair, lo, hi, workers int, sps []mesh.SegPath, h SegHooks) Aggregate {
	return sel.SelectRangeParallelSegBaseInto(pairs, 0, lo, hi, workers, sps, h)
}

// SelectRangeParallelSegBaseInto is SelectRangeParallelSegInto with the
// packet streams shifted by stream0: packet i draws from stream
// stream0+i. A gateway routing shard [lo,hi) of a larger logical batch
// passes the shard's global offset as stream0 and gets exactly the
// paths a single node would have selected for those positions (see
// SelectRangeParallelBaseInto). stream0 = 0 is the plain call.
func (sel *Selector) SelectRangeParallelSegBaseInto(pairs []mesh.Pair, stream0 uint64, lo, hi, workers int, sps []mesh.SegPath, h SegHooks) Aggregate {
	if lo < 0 || hi > len(pairs) || lo > hi {
		panic("core: SelectRangeParallelSegInto: range out of bounds")
	}
	if len(sps) < hi {
		panic("core: SelectRangeParallelSegInto: seg slice too short")
	}
	return runRangeParallel(lo, hi, workers, func(wlo, whi int) Aggregate {
		return sel.selectSegRange(pairs, sps, stream0, wlo, whi, h)
	})
}

// selectSegRangeArena is selectSegRange writing into a chunk-relative
// slice (out[i-base] for packet i) with each committed path's Segs
// carved from a leased arena. The per-worker body of the chunked slab
// engines. stream0 shifts packet i's randomness stream to stream0+i.
func (sel *Selector) selectSegRangeArena(pairs []mesh.Pair, out []mesh.SegPath, stream0 uint64, base, lo, hi int, ag *SegArenaGroup, h SegHooks) Aggregate {
	sc := sel.getScratch()
	defer sel.putScratch(sc)
	var ar *SegArena
	if ag != nil {
		ar = ag.get()
		defer ag.put(ar)
	}
	var agg Aggregate
	for i := lo; i < hi; i++ {
		sp, st := sel.constructSegArena(pairs[i].S, pairs[i].T, stream0+uint64(i), ar, sc)
		out[i-base] = sp
		agg.Add(st)
		if h.Edge != nil {
			sel.m.SegPathEdges(sp, func(e mesh.EdgeID) { h.Edge(i, e) })
		}
		if h.Seg != nil {
			h.Seg(i, pairs[i], sp, st)
		}
	}
	return agg
}

// SelectChunkSegArena routes pairs[lo:hi] into out[0:hi-lo] across
// `workers` goroutines, backing every committed path's Segs with slabs
// from ag (nil ag falls back to per-path heap copies). Packet i keeps
// randomness stream i — the global index — so chunks compose into
// exactly the paths of one whole-batch call; unlike
// SelectRangeParallelSegInto the output slice is chunk-relative
// (out[i-lo]), which is what lets the serve pipeline recycle two
// chunk-sized buffers instead of materializing the batch. The paths
// in out alias ag's slabs and die at ag.Reset; hooks run concurrently
// from all workers.
func (sel *Selector) SelectChunkSegArena(pairs []mesh.Pair, lo, hi, workers int, out []mesh.SegPath, ag *SegArenaGroup, h SegHooks) Aggregate {
	return sel.SelectChunkSegArenaBase(pairs, 0, lo, hi, workers, out, ag, h)
}

// SelectChunkSegArenaBase is SelectChunkSegArena with the packet
// streams shifted by stream0 (packet i draws from stream stream0+i) —
// the chunked slab engine of a server routing a shard of a larger
// logical batch; see SelectRangeParallelBaseInto.
func (sel *Selector) SelectChunkSegArenaBase(pairs []mesh.Pair, stream0 uint64, lo, hi, workers int, out []mesh.SegPath, ag *SegArenaGroup, h SegHooks) Aggregate {
	if lo < 0 || hi > len(pairs) || lo > hi {
		panic("core: SelectChunkSegArena: range out of bounds")
	}
	if len(out) < hi-lo {
		panic("core: SelectChunkSegArena: out slice too short")
	}
	return runRangeParallel(lo, hi, workers, func(wlo, whi int) Aggregate {
		return sel.selectSegRangeArena(pairs, out, stream0, lo, wlo, whi, ag, h)
	})
}

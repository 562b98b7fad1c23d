package core

import (
	"fmt"

	"obliviousmesh/internal/mesh"
)

// Observer receives every edge of each selected path while the batch
// is being routed — the fused routing+accounting hook of the online
// engine. packet is the packet's index (== its randomness stream), so
// an edge-load tracker can use it as a shard tag. The edges of one
// packet arrive in path order, immediately after that packet's path is
// constructed and cycle-removed; there is no second full-pass walk
// over the path set. With SelectAllParallelInto the observer is
// invoked concurrently from all workers and must be safe for
// concurrent use (metrics.LiveLoads.Add is).
type Observer func(packet int, e mesh.EdgeID)

// PathObserver receives each whole selected path (with its per-packet
// stats) immediately after construction, before the batch moves on to
// the next packet. It is the hook the invariant engine attaches to:
// unlike Observer it sees the packet's endpoints and accounting, so a
// checker can re-derive the full decision trace for (seed, packet,
// s, t) and compare. The path is the caller-owned final slice (safe to
// retain); with the parallel engine the observer is invoked
// concurrently from all workers and must be safe for concurrent use.
type PathObserver func(packet int, pr mesh.Pair, p mesh.Path, st Stats)

// Hooks bundles the optional batch-selection observers. The zero value
// disables both; a nil field costs nothing on the hot path.
type Hooks struct {
	Edge Observer
	Path PathObserver
}

// SelectAllInto is SelectAll into a caller-provided path slice
// (len(paths) ≥ len(pairs)): packet i's path is written to paths[i]
// and, when observe is non-nil, its edges are reported during the same
// pass. Per-packet scratch buffers are reused across the batch, so the
// steady-state cost per packet is one path construction, one
// cycle-removal, and (with an observer) one edge walk — no separate
// EdgeLoads pass and no per-packet buffer churn. The selected paths
// are bit-for-bit identical to SelectAll's.
func (sel *Selector) SelectAllInto(pairs []mesh.Pair, paths []mesh.Path, observe Observer) Aggregate {
	return sel.SelectAllIntoHooks(pairs, paths, Hooks{Edge: observe})
}

// SelectAllIntoHooks is SelectAllInto with the full hook set: edges
// stream to h.Edge and each finished path (with its stats) to h.Path
// during the same selection pass. Both hooks are optional and cost
// nothing when nil.
func (sel *Selector) SelectAllIntoHooks(pairs []mesh.Pair, paths []mesh.Path, h Hooks) Aggregate {
	if len(paths) < len(pairs) {
		panic(fmt.Sprintf("core: SelectAllInto: paths slice too short (%d < %d)", len(paths), len(pairs)))
	}
	return sel.selectRange(pairs, paths, 0, 0, len(pairs), h)
}

// selectRange routes pairs[lo:hi] into paths[lo:hi] with one scratch,
// reporting edges and paths to the hooks. It is the per-worker body of
// both the serial and the parallel fused engines. stream0 shifts packet
// i's randomness stream to stream0+i, so a sub-batch of a larger
// logical batch routes byte-identically to the whole-batch call (the
// sharded gateway's deterministic-split contract); every whole-batch
// entry point passes 0.
func (sel *Selector) selectRange(pairs []mesh.Pair, paths []mesh.Path, stream0 uint64, lo, hi int, h Hooks) Aggregate {
	sc := sel.getScratch()
	defer sel.putScratch(sc)
	var agg Aggregate
	for i := lo; i < hi; i++ {
		p, st := sel.constructPath(pairs[i].S, pairs[i].T, stream0+uint64(i), sc)
		paths[i] = p
		agg.Add(st)
		if h.Edge != nil {
			sel.m.PathEdges(p, func(e mesh.EdgeID) { h.Edge(i, e) })
		}
		if h.Path != nil {
			h.Path(i, pairs[i], p, st)
		}
	}
	return agg
}

package core

import (
	"fmt"
	"runtime"
	"sync"

	"obliviousmesh/internal/mesh"
)

// Observer receives every edge of each committed path while the batch
// is being routed — the fused routing+accounting hook of the online
// engine. packet is the packet's randomness stream (Request.Base plus
// its index), so an edge-load tracker can use it as a shard tag. The
// edges of one packet arrive in path order, immediately after that
// packet's path is committed; there is no second pass over the path
// set. With more than one worker the observer is invoked concurrently
// and must be safe for concurrent use (metrics.LiveLoads.Add is).
type Observer func(packet int, e mesh.EdgeID)

// PathObserver receives each committed hop path (with its per-packet
// stats) immediately after construction, before the batch moves on to
// the next packet. It is the hook the invariant engine attaches to:
// unlike Observer it sees the packet's endpoints and accounting, so a
// checker can re-derive the full decision trace for (seed, packet,
// s, t) and compare. packet is the packet's stream; the path is the
// caller-owned final slice (safe to retain).
type PathObserver func(packet int, pr mesh.Pair, p mesh.Path, st Stats)

// Hooks bundles the optional per-packet observers of Select. The zero
// value disables them all; a nil field costs nothing on the hot path.
// Every hook receives the packet's stream, Request.Base+j, and runs
// concurrently from all workers when Request.Workers allows more than
// one. Path belongs to the hop form (Request.Paths); Seg and Cand to
// the run form (Request.Segs); Edge to both.
type Hooks struct {
	Edge Observer
	Path PathObserver
	Seg  SegObserver
	Cand KSampleObserver
}

// SegHooks and KSegHooks are the names the segment and k-sample batch
// engines used for Hooks. They are kept only because meshbench (whose
// files change only with the benchmark) still names them; new code
// uses Hooks.
type (
	SegHooks  = Hooks
	KSegHooks = Hooks
)

// Request is one batch for Select. How a packet is routed depends only
// on (seed, stream, s, t) and, when sampling, the snapshot — never on
// the range, the worker count or the arena — so every field but Pairs,
// Base and Snapshot only says where the work runs and where the
// results go.
type Request struct {
	// Pairs are the packets; packet j routes Pairs[j].
	Pairs []mesh.Pair
	// Base shifts the randomness streams: packet j draws stream
	// Base+j. A range [lo, hi) of a larger logical batch is routed as
	// Pairs: pairs[lo:hi] with Base: base+lo, and selects exactly the
	// paths the whole-batch call selects at those positions — the
	// property deadline-checked chunks and a sharding gateway rely on.
	Base uint64
	// Workers is the goroutine count. ≤ 0 is automatic: GOMAXPROCS,
	// falling back to serial when the batch has fewer than two packets
	// per worker. An explicit count is honoured, clamped only to
	// len(Pairs).
	Workers int
	// Snapshot is a congestion snapshot indexed by mesh.EdgeID (a
	// metrics.LiveLoads Snapshot). With Options.KSample > 1 a non-nil
	// snapshot turns on k-sample selection: packet j draws KSample
	// candidates from KSampleStream(Base+j, ·) and commits the least
	// loaded under the snapshot. Otherwise every packet is plain
	// algorithm H — the race's candidate 0, counted in KStats as one
	// candidate.
	Snapshot []int64
	// Arena, when non-nil, backs the Segs of every committed run-length
	// path with its slabs instead of per-path heap copies; such paths
	// die at Arena.Reset. Unused in hop form.
	Arena *SegArenaGroup
	// Paths and Segs are the outputs, indexed like Pairs; set exactly
	// one, at least len(Pairs) long. Paths selects the hop form, Segs
	// the run-length form.
	Paths []mesh.Path
	Segs  []mesh.SegPath
	// Hooks observe each packet during the same pass.
	Hooks Hooks
}

// Select routes req.Pairs into req.Paths or req.Segs, reporting every
// committed packet to req.Hooks, and returns the batch's
// representation accounting and sampling accounting. It is the one
// batch entry point of the engine; see Request for the contract.
func (sel *Selector) Select(req Request) (Aggregate, KStats) {
	n := len(req.Pairs)
	hops := req.Paths != nil
	switch {
	case hops && req.Segs != nil:
		panic("core: Select: set one of Request.Paths and Request.Segs, not both")
	case hops && len(req.Paths) < n, !hops && len(req.Segs) < n:
		panic(fmt.Sprintf("core: Select: output shorter than the %d pairs", n))
	case hops && (req.Hooks.Seg != nil || req.Hooks.Cand != nil), !hops && req.Hooks.Path != nil:
		panic("core: Select: hook does not match the output form")
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if n < 2*workers {
			workers = 1
		}
	}
	if workers = min(workers, n); workers <= 1 {
		// No closure on the serial path, so req stays on the stack.
		return sel.selectRange(&req, 0, n)
	}
	return sel.selectParallel(req, workers)
}

// selectParallel splits the batch into contiguous per-worker ranges and
// merges the per-worker accounting. Contiguous index ranges keep
// per-worker memory access local and avoid per-packet channel traffic.
func (sel *Selector) selectParallel(req Request, workers int) (Aggregate, KStats) {
	n := len(req.Pairs)
	// One object holds everything the workers share, so a parallel
	// call pays one small allocation for it.
	var sum struct {
		wg  sync.WaitGroup
		mu  sync.Mutex
		agg Aggregate
		ks  KStats
	}
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		sum.wg.Add(1)
		go func(lo, hi int) {
			defer sum.wg.Done()
			agg, ks := sel.selectRange(&req, lo, hi)
			sum.mu.Lock()
			sum.agg.Merge(agg)
			sum.ks.Merge(ks)
			sum.mu.Unlock()
		}(lo, hi)
	}
	sum.wg.Wait()
	return sum.agg, sum.ks
}

// selectRange routes packets [lo, hi) of req with one scratch (and,
// in run form, one leased arena): the per-worker body of Select.
func (sel *Selector) selectRange(req *Request, lo, hi int) (Aggregate, KStats) {
	sc := sel.getScratch()
	defer sel.putScratch(sc)
	var ar *SegArena
	if req.Arena != nil && req.Paths == nil {
		ar = req.Arena.get()
		defer req.Arena.put(ar)
	}
	h := &req.Hooks
	var agg Aggregate
	var ks KStats
	for j := lo; j < hi; j++ {
		pr := req.Pairs[j]
		stream := req.Base + uint64(j)
		runs, st, committed, scores := sel.pick(pr.S, pr.T, stream, req.Snapshot, sc)
		agg.Add(st)
		ks.add(len(scores), committed, scores[committed], scores[0])
		id := int(stream)
		if req.Paths != nil {
			p := expandRuns(sel.m, pr.S, runs, st)
			req.Paths[j] = p
			if h.Edge != nil {
				sel.m.PathEdges(p, func(e mesh.EdgeID) { h.Edge(id, e) })
			}
			if h.Path != nil {
				h.Path(id, pr, p, st)
			}
			continue
		}
		sp := mesh.SegPath{Start: pr.S, Segs: segCopy(ar, runs)}
		req.Segs[j] = sp
		if h.Edge != nil {
			sel.m.SegPathEdges(sp, func(e mesh.EdgeID) { h.Edge(id, e) })
		}
		if h.Seg != nil {
			h.Seg(id, pr, sp, st)
		}
		if h.Cand != nil {
			h.Cand(id, pr, sp, st, committed, scores)
		}
	}
	return agg, ks
}

// expandRuns commits a packet's final runs as an exact-size hop path.
func expandRuns(m *mesh.Mesh, s mesh.NodeID, runs []mesh.Seg, st Stats) mesh.Path {
	return mesh.SegPath{Start: s, Segs: runs}.AppendExpand(m, make(mesh.Path, 0, st.Len+1))
}

// SelectAll selects the hop path of every pair of a routing problem
// serially; packet i uses stream i. It allocates the result slice; use
// Select to route into a caller's slice, in parallel or with hooks.
func (sel *Selector) SelectAll(pairs []mesh.Pair) ([]mesh.Path, Aggregate) {
	paths := make([]mesh.Path, len(pairs))
	agg, _ := sel.Select(Request{Pairs: pairs, Workers: 1, Paths: paths})
	return paths, agg
}

// SelectAllSeg is SelectAll in the run-length representation.
// Expanding each result yields exactly SelectAll's paths, and the
// aggregate matches too.
func (sel *Selector) SelectAllSeg(pairs []mesh.Pair) ([]mesh.SegPath, Aggregate) {
	sps := make([]mesh.SegPath, len(pairs))
	agg, _ := sel.Select(Request{Pairs: pairs, Workers: 1, Segs: sps})
	return sps, agg
}

// SelectChunkSegArenaBase is SelectChunkKSegArenaBase without a
// snapshot. Kept only because meshbench calls it; new code calls
// Select.
func (sel *Selector) SelectChunkSegArenaBase(pairs []mesh.Pair, stream0 uint64, lo, hi, workers int, out []mesh.SegPath, ag *SegArenaGroup, h SegHooks) (Aggregate, KStats) {
	return sel.SelectChunkKSegArenaBase(pairs, nil, stream0, lo, hi, workers, out, ag, h)
}

// SelectChunkKSegArenaBase routes pairs[lo:hi] into out[:hi-lo] with
// streams stream0+lo.. against snapshot, Segs carved from ag. Kept
// only because meshbench calls it; new code calls Select.
func (sel *Selector) SelectChunkKSegArenaBase(pairs []mesh.Pair, snapshot []int64, stream0 uint64, lo, hi, workers int, out []mesh.SegPath, ag *SegArenaGroup, h KSegHooks) (Aggregate, KStats) {
	return sel.Select(Request{Pairs: pairs[lo:hi], Base: stream0 + uint64(lo), Workers: workers, Snapshot: snapshot, Arena: ag, Segs: out[:hi-lo], Hooks: h})
}

package metrics

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"obliviousmesh/internal/mesh"
)

// LiveLoads is a streaming edge-load tracker for the paper's online
// setting, where packets "continuously arrive in the network" (§1) and
// congestion must be observable while traffic is still being routed —
// not recomputed from scratch by a second pass over every path, as the
// batch EdgeLoads does.
//
// Loads are kept as difference vectors in the mesh.EdgeID layout.
// Along one mesh line of dimension i (the nodes that agree on every
// coordinate but the i-th) the edges at coordinates [a, b) carry one
// more packet when cell a gets +1 and cell b gets −1; the per-edge
// load is the prefix sum along the line. A straight run of any length therefore
// costs two atomic adds instead of one per hop. On the open mesh cell b
// is at most side−1, which is either a real edge slot or the unused
// slot of the line's last node, so the footprint is the same d·n int64
// as a per-edge vector. On a wrapping torus dimension every slot is a
// real edge: a run crossing the seam books two intervals, and an
// interval reaching the line end puts its −1 into a per-line tail cell,
// allocated for wrapping dimensions only.
//
// The vectors are sharded: writers pick a shard by a caller-supplied
// tag (stream id, worker index — anything that spreads concurrent
// writers out), so goroutines hammering the same hot line land on
// different cache lines instead of serializing on one atomic word.
//
// Booking writes the +1 before the −1, and Snapshot reads each shard
// in descending index order with the tail cells first, so every −1 the
// reader sees has its +1 seen too. The only thing a concurrent reader
// can catch is a half-written run (its +1 seen, its −1 not yet), which
// would show as a phantom load past the run's end; it shows up as a
// nonzero line total, and the reader re-reads that one line. Snapshot
// is therefore exact at quiescence, includes every booking completed
// before the call, and never shows a phantom from another writer's
// half-written run.
type LiveLoads struct {
	edges   int
	mask    uint64
	shards  []loadShard
	geo     atomic.Pointer[liveGeometry]
	resetMu sync.Mutex
}

// loadShard is one sharded difference vector. The padding keeps
// adjacent shard headers on distinct cache lines; the vectors are
// independent allocations, so cross-shard false sharing is limited to
// the headers.
type loadShard struct {
	diff []int64
	_    [40]byte // pad the 24-byte slice header to a 64-byte cache line
}

// liveGeometry is the mesh a tracker is bound to, plus the tail cells
// of its wrapping dimensions.
type liveGeometry struct {
	m      *mesh.Mesh
	tailAt []int     // per dimension: offset of its lines' tail cells, -1 when it does not wrap
	tails  [][]int64 // per shard: one tail cell per line of every wrapping dimension
	sums   sync.Pool // *[]int64 of len(tails[0]): per-snapshot tail totals
}

func newLiveGeometry(m *mesh.Mesh, shards int) *liveGeometry {
	g := &liveGeometry{m: m, tailAt: make([]int, m.Dim())}
	n := 0
	for d := range g.tailAt {
		g.tailAt[d] = -1
		if m.WrapDim(d) {
			g.tailAt[d] = n
			n += m.Size() / m.Side(d)
		}
	}
	if n > 0 {
		g.tails = make([][]int64, shards)
		for i := range g.tails {
			g.tails[i] = make([]int64, n)
		}
		g.sums.New = func() any { s := make([]int64, n); return &s }
	}
	return g
}

// tail returns the index of the tail cell of the dim line whose
// coordinate-0 node is first.
func (g *liveGeometry) tail(dim, first int) int {
	st := g.m.Stride(dim)
	return g.tailAt[dim] + first%st + first/(st*g.m.Side(dim))*st
}

// NewLiveLoads builds a tracker for the mesh's edge space. shards ≤ 0
// picks a default sized to the machine (GOMAXPROCS rounded up to a
// power of two, capped at 16); any other value is rounded up to a
// power of two so shard selection is a mask, not a modulo.
func NewLiveLoads(m *mesh.Mesh, shards int) *LiveLoads {
	l := NewLiveLoadsSize(m.EdgeSpace(), shards)
	l.geo.Store(newLiveGeometry(m, len(l.shards)))
	return l
}

// NewLiveLoadsSize is NewLiveLoads for a raw edge-ID space size, for
// callers that do not hold the mesh yet. The tracker binds to the mesh
// of its first AddRun, AddSegPath or AddPath call; a later call with a
// mesh of another shape panics.
func NewLiveLoadsSize(edgeSpace, shards int) *LiveLoads {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 16 {
			shards = 16
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	l := &LiveLoads{edges: edgeSpace, mask: uint64(n - 1), shards: make([]loadShard, n)}
	for i := range l.shards {
		l.shards[i].diff = make([]int64, edgeSpace)
	}
	return l
}

// bind returns the tracker's geometry, binding it to m on first use.
func (l *LiveLoads) bind(m *mesh.Mesh) *liveGeometry {
	if g := l.geo.Load(); g != nil && g.m == m {
		return g
	}
	g := l.geo.Load()
	if g == nil {
		if m.EdgeSpace() != l.edges {
			panic(fmt.Sprintf("metrics: LiveLoads of edge space %d booked against %v (edge space %d)",
				l.edges, m, m.EdgeSpace()))
		}
		l.geo.CompareAndSwap(nil, newLiveGeometry(m, len(l.shards)))
		g = l.geo.Load()
	}
	if !sameShape(g.m, m) {
		panic(fmt.Sprintf("metrics: LiveLoads bound to %v booked against %v", g.m, m))
	}
	return g
}

func sameShape(a, b *mesh.Mesh) bool {
	if a.Wrap() != b.Wrap() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Dim(); i++ {
		if a.Side(i) != b.Side(i) {
			return false
		}
	}
	return true
}

// Shards returns the number of counter shards.
func (l *LiveLoads) Shards() int { return len(l.shards) }

// EdgeSpace returns the size of the tracked edge-ID space.
func (l *LiveLoads) EdgeSpace() int { return l.edges }

// span queues one packet on the edges at coordinates [a, b) of the
// dim line whose coordinate-0 edge is line (b ≤ side): +1 at cell a,
// −1 at cell b, or at the line's tail cell when b is the line end.
func (l *LiveLoads) span(q *spanQueue, g *liveGeometry, sh uint64, dim, line, a, b int) {
	st := g.m.Stride(dim)
	if q.n == len(q.cells) {
		q.flush()
	}
	q.cells[q.n] = &l.shards[sh].diff[line+a*st]
	if b < g.m.Side(dim) {
		q.cells[q.n+1] = &l.shards[sh].diff[line+b*st]
	} else {
		q.cells[q.n+1] = &g.tails[sh][g.tail(dim, line-dim*g.m.Size())]
	}
	q.n += 2
}

// spanQueue collects the cells of a path's intervals and books them
// together. A locked add orders every later memory access behind it,
// so booking interval by interval would serialize one cache miss per
// cell; flush first touches every queued cell with plain atomic loads,
// which miss in parallel, then adds +1 and −1 per interval in order.
type spanQueue struct {
	n     int
	cells [64]*int64 // +1 cell, −1 cell, per interval
}

func (q *spanQueue) flush() {
	var touch int64
	for _, c := range q.cells[:q.n] {
		touch += atomic.LoadInt64(c)
	}
	for i := 0; i < q.n; i += 2 {
		atomic.AddInt64(q.cells[i], 1)
		atomic.AddInt64(q.cells[i+1], -1)
	}
	q.n = int(touch & 0) // 0, keeping the loads live
}

// Add records one traversal of edge e. tag selects the shard (low bits
// masked); use the packet's stream id or the worker index so that
// concurrent writers spread across shards. Safe for concurrent use.
// Booking a path edge by edge costs two atomics per hop; AddPath and
// AddSegPath book whole runs at that price.
func (l *LiveLoads) Add(tag uint64, e mesh.EdgeID) {
	g := l.geo.Load()
	if g == nil {
		panic("metrics: LiveLoads has no mesh yet: build it with NewLiveLoads or book a path first")
	}
	m := g.m
	if !m.ValidEdge(e) {
		panic(fmt.Sprintf("metrics: Add of invalid edge %d", e))
	}
	dim := int(e) / m.Size()
	st, s := m.Stride(dim), m.Side(dim)
	c := (int(e) / st) % s
	var q spanQueue
	l.span(&q, g, tag&l.mask, dim, int(e)-c*st, c, c+1)
	q.flush()
}

// AddPath records every edge of one path under one tag — the fused
// accounting step of a live router. Consecutive hops along one line
// in one direction are booked as a single run.
func (l *LiveLoads) AddPath(m *mesh.Mesh, tag uint64, p mesh.Path) {
	g := l.bind(m)
	m = g.m
	sh := tag & l.mask
	// The open interval: edges at coordinates [a, b) of the dim line
	// whose coordinate-0 edge is line; line < 0 before the first hop.
	line, dim, st, s, a, b := -1, 0, 0, 0, 0, 0
	var q spanQueue
	m.PathEdges(p, func(e mesh.EdgeID) {
		if line >= 0 {
			switch x := int(e); {
			case b < s && x == line+b*st:
				b++
				return
			case a > 0 && x == line+(a-1)*st:
				a--
				return
			}
			l.span(&q, g, sh, dim, line, a, b)
		}
		dim = int(e) / m.Size()
		st, s = m.Stride(dim), m.Side(dim)
		c := (int(e) / st) % s
		line, a, b = int(e)-c*st, c, c+1
	})
	if line >= 0 {
		l.span(&q, g, sh, dim, line, a, b)
	}
	q.flush()
}

// Observer returns an Add closure bound to one tag, matching the edge
// observer signature of the core selection hooks.
func (l *LiveLoads) Observer(tag uint64) func(e mesh.EdgeID) {
	return func(e mesh.EdgeID) { l.Add(tag, e) }
}

// AddRun records every edge of one axis-aligned run of |run| steps
// from start along dim (sign of run is the direction) under one tag,
// and returns the node the run ends at so consecutive runs chain. The
// run is booked as one interval of its line, or two when it crosses a
// torus seam: two or four atomic adds whatever its length. Safe for
// concurrent use.
//
// AddRun accepts exactly the canonical runs the selector emits and
// panics on anything else before booking any of it, matching AddPath's
// reject-don't-guess stance: a run that walks past an open-mesh
// boundary (which includes any nonzero run on a side-1 or side-2
// dimension — those never wrap, see mesh.WrapDim) panics "run leaves
// the mesh", and a run of |run| ≥ side on a wrapping dimension panics
// "run laps the ring". Lap runs are non-canonical — SegWalkEnd
// normalizes them modulo the side and AppendStaircaseSegs never emits
// more than ⌊side/2⌋ steps — so silently booking one would charge ring
// edges more times than the represented walk traverses them.
func (l *LiveLoads) AddRun(m *mesh.Mesh, tag uint64, start mesh.NodeID, dim, run int) mesh.NodeID {
	var q spanQueue
	c := int(start) / m.Stride(dim) % m.Side(dim)
	end, _ := l.addRun(&q, l.bind(m), tag&l.mask, int(start), c, dim, run)
	q.flush()
	return mesh.NodeID(end)
}

// addRun validates the run from node u, whose dim coordinate is c, and
// queues its one or two intervals on q; it returns the node the run
// ends at and that node's dim coordinate.
func (l *LiveLoads) addRun(q *spanQueue, g *liveGeometry, sh uint64, u, c, dim, run int) (int, int) {
	if run == 0 {
		return u, c
	}
	m := g.m
	s, st := m.Side(dim), m.Stride(dim)
	first := u - c*st // the line's coordinate-0 node
	line := dim*m.Size() + first
	steps, a := run, c // the run covers edges [a, a+steps), modulo s on the torus
	if run < 0 {
		steps, a = -run, c+run
	}
	if !m.WrapDim(dim) {
		if a < 0 || a+steps > s-1 {
			panic("metrics: run leaves the mesh")
		}
		l.span(q, g, sh, dim, line, a, a+steps)
		end := c + run
		return first + end*st, end
	}
	if steps >= s {
		panic("metrics: run laps the ring")
	}
	if a < 0 {
		a += s
	}
	if b := a + steps; b <= s {
		l.span(q, g, sh, dim, line, a, b)
	} else {
		l.span(q, g, sh, dim, line, a, s)
		l.span(q, g, sh, dim, line, 0, b-s)
	}
	end := a // a −run ends at the interval's low end, a +run one past its high end
	if run > 0 {
		if end = a + steps; end >= s {
			end -= s
		}
	}
	return first + end*st, end
}

// Snapshot returns the current total load per edge (indexed by
// mesh.EdgeID), summed across shards with atomic loads.
func (l *LiveLoads) Snapshot() []int64 {
	return l.SnapshotInto(make([]int64, l.edges))
}

// SnapshotInto is Snapshot into a caller-provided vector (len ≥ the
// edge space), returning it re-sliced; it allocates nothing when the
// buffer is large enough. It writes every cell of dst[:EdgeSpace] —
// each line's cells in the pass below, or all of them by the clear of
// an unbound tracker — so dst needs no clearing, and a reused buffer
// carries nothing over from the snapshot it held before
// (TestSnapshotIntoOverwrites).
//
// Every shard's tail cells are read first, then the difference cells
// in descending order along every line, so every −1 read has its +1
// read too. Loads come out of the same descending pass: on a balanced
// line the load at coordinate c is minus the tail and every difference
// above c. What is left after coordinate 0 is minus the line total,
// that is minus the number of half-written runs the reader caught on
// the line, and a nonzero line is re-read until it balances. Each
// shard cell is read once and each output cell written once.
func (l *LiveLoads) SnapshotInto(dst []int64) []int64 {
	dst = dst[:l.edges]
	g := l.geo.Load()
	if g == nil {
		clear(dst)
		return dst // unbound: nothing can have been booked
	}
	var tails []int64
	if g.tails != nil {
		p := g.sums.Get().(*[]int64)
		defer g.sums.Put(p)
		tails = *p
		clear(tails)
		for sh := range l.shards {
			t := g.tails[sh]
			for i := range t {
				tails[i] += atomic.LoadInt64(&t[i])
			}
		}
	}
	m := g.m
	n := m.Size()
	for dim := 0; dim < m.Dim(); dim++ {
		s, st := m.Side(dim), m.Stride(dim)
		for blk := dim * n; blk < (dim+1)*n; blk += s * st {
			if st == 1 { // the block is one contiguous line
				out := dst[blk : blk+s]
				in := l.sumShards(out, blk)
				acc := -g.tailSum(tails, dim, blk)
				for c := len(out) - 1; c >= 0; c-- {
					d := out[c] + atomic.LoadInt64(&in[c])
					out[c] = acc
					acc -= d
				}
				if acc != 0 {
					l.reread(g, dst, dim, blk)
				}
				continue
			}
			// st interleaved lines, snapCols at a time: row c of the
			// block holds coordinate c of every line.
			for j0 := blk; j0 < blk+st; j0 += snapCols {
				var buf [snapCols]int64
				acc := buf[:min(snapCols, blk+st-j0)]
				for j := range acc {
					acc[j] = -g.tailSum(tails, dim, j0+j)
				}
				for c := s - 1; c >= 0; c-- {
					out := dst[j0+c*st : j0+c*st+len(acc)]
					in := l.sumShards(out, j0+c*st)
					for j := len(out) - 1; j >= 0; j-- {
						d := out[j] + atomic.LoadInt64(&in[j])
						out[j] = acc[j]
						acc[j] -= d
					}
				}
				for j, bal := range acc {
					if bal != 0 {
						l.reread(g, dst, dim, j0+j)
					}
				}
			}
		}
	}
	return dst
}

// snapCols bounds how many interleaved lines one snapshot pass
// carries running totals for: a 4 KiB accumulator on the stack, and a
// 4 KiB contiguous read per row and shard.
const snapCols = 512

// sumShards sets out — the cells from EdgeID first on — to their
// totals across every shard but the last, reading each shard from the
// last cell down, and returns the last shard's matching cells for the
// caller to fold in (reading them from the last cell down too).
func (l *LiveLoads) sumShards(out []int64, first int) []int64 {
	last := len(l.shards) - 1
	if last == 0 {
		clear(out)
	}
	for sh := 0; sh < last; sh++ {
		in := l.shards[sh].diff[first : first+len(out)]
		if sh == 0 {
			for j := len(in) - 1; j >= 0; j-- {
				out[j] = atomic.LoadInt64(&in[j])
			}
			continue
		}
		for j := len(in) - 1; j >= 0; j-- {
			out[j] += atomic.LoadInt64(&in[j])
		}
	}
	return l.shards[last].diff[first : first+len(out)]
}

// tailSum returns the tail total of the dim line whose coordinate-0
// edge is line, 0 when the dimension does not wrap.
func (g *liveGeometry) tailSum(tails []int64, dim, line int) int64 {
	if g.tailAt[dim] < 0 {
		return 0
	}
	return tails[g.tail(dim, line-dim*g.m.Size())]
}

// reread re-reads one dim line (coordinate-0 edge line) across all
// shards, the way SnapshotInto reads it, until no half-written run is
// caught on it. A writer between its two atomics is at most a
// descheduling away from finishing, so the reader yields between
// attempts.
func (l *LiveLoads) reread(g *liveGeometry, dst []int64, dim, line int) {
	s, st := g.m.Side(dim), g.m.Stride(dim)
	ti := -1
	if g.tailAt[dim] >= 0 {
		ti = g.tail(dim, line-dim*g.m.Size())
	}
	for {
		var acc int64
		for c := 0; c < s; c++ {
			dst[line+c*st] = 0
		}
		for sh := range l.shards {
			if ti >= 0 {
				acc -= atomic.LoadInt64(&g.tails[sh][ti])
			}
			diff := l.shards[sh].diff
			for c := s - 1; c >= 0; c-- {
				dst[line+c*st] += atomic.LoadInt64(&diff[line+c*st])
			}
		}
		for c := s - 1; c >= 0; c-- {
			d := dst[line+c*st]
			dst[line+c*st] = acc
			acc -= d
		}
		if acc == 0 {
			return
		}
		runtime.Gosched()
	}
}

// Max returns the current maximum edge load — the live congestion C.
// It materializes one snapshot; for frequent polling use SnapshotInto
// with a reusable buffer and MaxLoad.
func (l *LiveLoads) Max() int64 {
	return MaxLoad(l.Snapshot())
}

// Total returns the total number of recorded edge traversals (the
// total work Σ|p| of the routed paths), summed from one snapshot.
func (l *LiveLoads) Total() int64 {
	return SumLoads(l.Snapshot())
}

// Reset zeroes all counters. It is safe under concurrent bookings and
// snapshots: each shard line is read the way Snapshot reads it, and
// only once it balances — a set of whole runs, none half-written — are
// exactly those values subtracted, in ascending order, so a booking
// that lands during the Reset survives it and a concurrent reader sees
// at worst a half-removed run, which it re-reads like a half-written
// one. Resets are serialized.
func (l *LiveLoads) Reset() {
	g := l.geo.Load()
	if g == nil { // unbound: nothing booked yet; just fault the vectors in
		for sh := range l.shards {
			diff := l.shards[sh].diff
			for e := range diff {
				atomic.StoreInt64(&diff[e], 0)
			}
		}
		return
	}
	l.resetMu.Lock()
	defer l.resetMu.Unlock()
	m := g.m
	n := m.Size()
	buf := make([]int64, m.MaxSide())
	for sh := range l.shards {
		diff := l.shards[sh].diff
		for dim := 0; dim < m.Dim(); dim++ {
			s, st := m.Side(dim), m.Stride(dim)
			for blk := 0; blk < n; blk += s * st {
				for first := blk; first < blk+st; first++ {
					line, ti := dim*n+first, -1
					if g.tailAt[dim] >= 0 {
						ti = g.tail(dim, first)
					}
					var tail int64
					for {
						bal := int64(0)
						if ti >= 0 {
							tail = atomic.LoadInt64(&g.tails[sh][ti])
							bal = tail
						}
						for c := s - 1; c >= 0; c-- {
							buf[c] = atomic.LoadInt64(&diff[line+c*st])
							bal += buf[c]
						}
						if bal == 0 {
							break
						}
						runtime.Gosched()
					}
					for c := 0; c < s; c++ {
						atomic.AddInt64(&diff[line+c*st], -buf[c])
					}
					if ti >= 0 {
						atomic.AddInt64(&g.tails[sh][ti], -tail)
					}
				}
			}
		}
	}
}

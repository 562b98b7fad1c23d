package metrics

import (
	"math"

	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
)

// This file is the segment-native side of the metrics package: every
// measure of §2 computed directly on run-length paths. A run of k hops
// along one dimension covers k consecutive edge IDs (stride apart in
// the node part), so tallying it is a tight add-and-step loop — no
// per-hop EdgeBetween, no expansion to a hop path.

// MaxLoadRun returns the maximum load over the edges of one
// axis-aligned run of |run| steps from start along dim against a plain
// load vector (a LiveLoads Snapshot, indexed by mesh.EdgeID), plus the
// node the run ends at so consecutive runs chain. It walks exactly the
// edges AddRun would book — same stride arithmetic, same canonical-run
// panics — but reads instead of writing, which is what the k-sample
// selection mode uses to score candidate paths against a frozen
// congestion snapshot without expanding them.
func MaxLoadRun(m *mesh.Mesh, loads []int64, start mesh.NodeID, dim, run int) (int64, mesh.NodeID) {
	u := int(start)
	v, end, _ := maxLoadRun(m, loads, u, u/m.Stride(dim)%m.Side(dim), dim, run)
	return v, mesh.NodeID(end)
}

// maxLoadRun is MaxLoadRun from node u whose dim coordinate is c: it
// reads the run's edges as one strided span of its line, or two when
// it crosses a torus seam (the intervals AddRun books), and returns
// the maximum with the node the run ends at and that node's dim
// coordinate.
func maxLoadRun(m *mesh.Mesh, loads []int64, u, c, dim, run int) (int64, int, int) {
	if run == 0 {
		return 0, u, c
	}
	s, st := m.Side(dim), m.Stride(dim)
	line := dim*m.Size() + u - c*st // edge id of the line's coordinate-0 edge
	steps, a := run, c              // the run covers edges [a, a+steps), modulo s on the torus
	if run < 0 {
		steps, a = -run, c+run
	}
	if !m.WrapDim(dim) {
		if a < 0 || a+steps > s-1 {
			panic("metrics: run leaves the mesh")
		}
		return maxStride(loads, line+a*st, st, steps), u + run*st, c + run
	}
	if steps >= s {
		panic("metrics: run laps the ring")
	}
	if a < 0 {
		a += s
	}
	var v int64
	if b := a + steps; b <= s {
		v = maxStride(loads, line+a*st, st, steps)
	} else {
		v = max(maxStride(loads, line+a*st, st, s-a), maxStride(loads, line, st, b-s))
	}
	end := a // a −run ends at the interval's low end, a +run one past its high end
	if run > 0 {
		if end = a + steps; end >= s {
			end -= s
		}
	}
	return v, u + (end-c)*st, end
}

// maxStride returns the maximum of the n ≥ 1 entries loads[i],
// loads[i+st], …, loads[i+(n-1)·st].
func maxStride(loads []int64, i, st, n int) int64 {
	span := loads[i : i+(n-1)*st+1]
	var v int64
	for j := 0; j < len(span); j += st {
		v = max(v, span[j])
	}
	return v
}

// SegPathMaxLoad returns the maximum load any edge of a run-length
// path carries in a plain load vector (indexed by mesh.EdgeID) — the
// candidate score of the k-sample selection mode: routing along sp
// would raise the maximum load on its own edges to at least
// SegPathMaxLoad+1. Computed run by run as MaxLoadRun does, no expansion.
// An empty or sentinel (Start < 0) path, and any path against a nil
// load vector (an unloaded network), scores 0.
func SegPathMaxLoad(m *mesh.Mesh, loads []int64, sp mesh.SegPath) int64 {
	return SegPathMaxLoadLimit(m, loads, sp, math.MaxInt64)
}

// SegPathMaxLoadLimit is SegPathMaxLoad that gives up once the answer
// is known to be at least limit: it stops before the first run it
// would read with the running maximum already ≥ limit and returns that
// running maximum. So a result below limit is the exact score, and a
// result ≥ limit only says the score is ≥ limit. A k-sample challenger
// scored against the incumbent's score as its limit cannot win once it
// reaches it, so the rest of its runs need not be read.
func SegPathMaxLoadLimit(m *mesh.Mesh, loads []int64, sp mesh.SegPath, limit int64) int64 {
	if sp.Start < 0 || loads == nil {
		return 0
	}
	// Track the walk's coordinates so no run needs a division.
	var buf [8]int
	coords := buf[:0]
	if m.Dim() > len(buf) {
		coords = make([]int, 0, m.Dim())
	}
	u := int(sp.Start)
	for i := 0; i < m.Dim(); i++ {
		coords = append(coords, u/m.Stride(i)%m.Side(i))
	}
	var best int64
	for _, sg := range sp.Segs {
		if best >= limit {
			break
		}
		d := int(sg.Dim)
		var v int64
		v, u, coords[d] = maxLoadRun(m, loads, u, coords[d], d, int(sg.Run))
		best = max(best, v)
	}
	return best
}

// AddSegPath records every edge of one run-length path under one tag —
// the fused accounting step of a segment-native live router, the
// counterpart of AddPath without the per-hop decode: two atomic adds
// per run (four for a run across a torus seam), whatever its length.
func (l *LiveLoads) AddSegPath(m *mesh.Mesh, tag uint64, sp mesh.SegPath) {
	if sp.Start < 0 {
		return
	}
	g := l.bind(m)
	sh := tag & l.mask
	var q spanQueue
	// Track the walk's coordinates so no run needs a division.
	var buf [8]int
	coords := buf[:0]
	if m.Dim() > len(buf) {
		coords = make([]int, 0, m.Dim())
	}
	u := int(sp.Start)
	for i := 0; i < m.Dim(); i++ {
		coords = append(coords, u/m.Stride(i)%m.Side(i))
	}
	for _, sg := range sp.Segs {
		d := int(sg.Dim)
		u, coords[d] = l.addRun(&q, g, sh, u, coords[d], d, int(sg.Run))
	}
	q.flush()
}

// EdgeLoadsSeg is EdgeLoads for run-length paths: per-edge traversal
// counts indexed by mesh.EdgeID, tallied run by run.
func EdgeLoadsSeg(m *mesh.Mesh, sps []mesh.SegPath) []int64 {
	loads := make([]int64, m.EdgeSpace())
	AccumulateEdgeLoadsSeg(m, sps, loads)
	return loads
}

// AccumulateEdgeLoadsSeg adds the edge traversals of run-length paths
// into an existing load vector (length ≥ EdgeSpace).
func AccumulateEdgeLoadsSeg(m *mesh.Mesh, sps []mesh.SegPath, loads []int64) {
	for _, sp := range sps {
		m.SegPathEdges(sp, func(e mesh.EdgeID) {
			loads[e]++
		})
	}
}

// CongestionSeg returns C = max edge load of a run-length path set.
func CongestionSeg(m *mesh.Mesh, sps []mesh.SegPath) int {
	return int(MaxLoad(EdgeLoadsSeg(m, sps)))
}

// DilationSeg returns D = max path length, summed from the runs.
func DilationSeg(sps []mesh.SegPath) int {
	max := 0
	for _, sp := range sps {
		if l := sp.Len(); l > max {
			max = l
		}
	}
	return max
}

// StretchStatsSeg returns the maximum and mean stretch over a
// run-length path set. Endpoints come from the representation itself
// (Start and the arithmetic Dest), so no expansion happens.
func StretchStatsSeg(m *mesh.Mesh, sps []mesh.SegPath) (max, mean float64) {
	if len(sps) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, sp := range sps {
		s := m.StretchSeg(sp, sp.Start, sp.Dest(m))
		sum += s
		if s > max {
			max = s
		}
	}
	return max, sum / float64(len(sps))
}

// EvaluateSeg computes the full §2 report for a run-length path set
// against its problem — the expansion-free counterpart of Evaluate,
// equal to Evaluate on the Compress'd path set.
func EvaluateSeg(dc *decomp.Decomposition, pairs []mesh.Pair, sps []mesh.SegPath) Report {
	m := dc.Mesh()
	maxS, avgS := StretchStatsSeg(m, sps)
	return Report{
		Congestion: CongestionSeg(m, sps),
		Dilation:   DilationSeg(sps),
		MaxStretch: maxS,
		AvgStretch: avgS,
		LowerBound: CongestionLowerBound(dc, pairs),
	}
}

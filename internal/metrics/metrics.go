// Package metrics computes the quality measures of the paper's §2:
// edge congestion C, dilation D, stretch, and the lower bounds on the
// optimal congestion C* — boundary congestion B over submeshes, the
// total-work bound, and the node-demand bound. C* itself is not
// computable in general; every lower bound here is a valid certificate
// (C* ≥ LB), so competitive ratios reported against them are
// conservative upper bounds on the true ratio.
package metrics

import (
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
)

// EdgeLoads tallies, for every undirected edge, the number of path
// traversals over it (a path crossing an edge twice counts twice; the
// paper's C(e) "number of times edge e is used by the paths").
// The result is indexed by mesh.EdgeID. Loads are int64: soak-scale
// workloads exceed 2^31 total traversals, which silently wrapped the
// previous int32 vector.
func EdgeLoads(m *mesh.Mesh, paths []mesh.Path) []int64 {
	loads := make([]int64, m.EdgeSpace())
	for _, p := range paths {
		m.PathEdges(p, func(e mesh.EdgeID) {
			loads[e]++
		})
	}
	return loads
}

// AccumulateEdgeLoads adds the edge traversals of paths into an
// existing load vector (indexed by mesh.EdgeID, length ≥ EdgeSpace),
// for callers that tally across batches without reallocating.
func AccumulateEdgeLoads(m *mesh.Mesh, paths []mesh.Path, loads []int64) {
	for _, p := range paths {
		m.PathEdges(p, func(e mesh.EdgeID) {
			loads[e]++
		})
	}
}

// Congestion returns C = max edge load.
func Congestion(m *mesh.Mesh, paths []mesh.Path) int {
	loads := EdgeLoads(m, paths)
	return int(MaxLoad(loads))
}

// MaxLoad returns the maximum entry of an edge-load vector.
func MaxLoad(loads []int64) int64 {
	max := int64(0)
	for _, v := range loads {
		if v > max {
			max = v
		}
	}
	return max
}

// SumLoads returns the sum of an edge-load vector: the total number of
// edge traversals Σ|p| it records.
func SumLoads(loads []int64) int64 {
	var t int64
	for _, v := range loads {
		t += v
	}
	return t
}

// ArgMaxLoad returns the edge with the maximum load and its load.
func ArgMaxLoad(loads []int64) (mesh.EdgeID, int64) {
	best := mesh.EdgeID(0)
	max := int64(-1)
	for e, v := range loads {
		if v > max {
			max = v
			best = mesh.EdgeID(e)
		}
	}
	return best, max
}

// Dilation returns D = max path length.
func Dilation(paths []mesh.Path) int {
	max := 0
	for _, p := range paths {
		if l := p.Len(); l > max {
			max = l
		}
	}
	return max
}

// StretchStats returns the maximum and mean stretch over a path set.
// Paths with identical endpoints contribute stretch 1.
func StretchStats(m *mesh.Mesh, paths []mesh.Path) (max, mean float64) {
	if len(paths) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, p := range paths {
		s := m.Stretch(p)
		sum += s
		if s > max {
			max = s
		}
	}
	return max, sum / float64(len(paths))
}

// BoundaryCongestionOf returns B(M', Π) = |Π'| / out(M') for one
// submesh: Π' are the packets with exactly one endpoint inside M'
// (paper §2). Returns 0 for boxes with no outgoing edges (the whole
// mesh).
func BoundaryCongestionOf(m *mesh.Mesh, b mesh.Box, pairs []mesh.Pair) float64 {
	out := m.OutDegree(b)
	if out == 0 {
		return 0
	}
	crossing := 0
	for _, pr := range pairs {
		sin := m.BoxContains(b, m.CoordOf(pr.S))
		tin := m.BoxContains(b, m.CoordOf(pr.T))
		if sin != tin {
			crossing++
		}
	}
	return float64(crossing) / float64(out)
}

// BoundaryCongestion returns B = max over all *regular* submeshes of
// the decomposition of the boundary congestion, plus single-node boxes
// (the node-demand bound). Scanning all 2^Θ(n) submeshes is
// infeasible; the regular family is the certificate the paper's own
// analysis uses (Lemma 3.7 charges congestion against B via regular
// submeshes), and any submesh family yields a valid lower bound
// ⌈B⌉ ≤ C*.
func BoundaryCongestion(dc *decomp.Decomposition, pairs []mesh.Pair) (float64, mesh.Box) {
	m := dc.Mesh()
	sc := make([]mesh.Coord, len(pairs))
	tc := make([]mesh.Coord, len(pairs))
	for i, pr := range pairs {
		sc[i] = m.CoordOf(pr.S)
		tc[i] = m.CoordOf(pr.T)
	}
	best := 0.0
	var bestBox mesh.Box
	// Each (level, family) is a partition of the mesh (modulo the 2-D
	// discarded corners), so the per-box crossing counts of a whole
	// family are tallied in a single O(N) pass keyed by the box's low
	// corner, instead of O(#boxes · N).
	for level := 0; level < dc.Levels(); level++ {
		for j := 1; j <= dc.NumTypes(level); j++ {
			type rec struct {
				box      mesh.Box
				crossing int
			}
			counts := map[string]*rec{}
			tally := func(b mesh.Box) {
				key := b.Lo.String()
				r := counts[key]
				if r == nil {
					r = &rec{box: b}
					counts[key] = r
				}
				r.crossing++
			}
			for i := range pairs {
				sb, sok := dc.TypeContaining(level, j, sc[i])
				tb, tok := dc.TypeContaining(level, j, tc[i])
				same := sok && tok && sb.Equal(tb)
				if same {
					continue
				}
				if sok {
					tally(sb)
				}
				if tok {
					tally(tb)
				}
			}
			for _, r := range counts {
				out := m.OutDegree(r.box)
				if out == 0 {
					continue
				}
				if v := float64(r.crossing) / float64(out); v > best {
					best = v
					bestBox = r.box
				}
			}
		}
	}
	return best, bestBox
}

// WorkLowerBound returns ⌈Σ dist(s_i,t_i) / E⌉: every path of packet i
// uses at least dist(s_i,t_i) edges, so some edge carries at least the
// average load.
func WorkLowerBound(m *mesh.Mesh, pairs []mesh.Pair) int {
	total := m.TotalDist(pairs)
	e := m.NumEdges()
	if e == 0 || total == 0 {
		return 0
	}
	return (total + e - 1) / e
}

// NodeDemandLowerBound returns max over nodes v of
// ⌈(packets with exactly one endpoint at v) / degree(v)⌉.
func NodeDemandLowerBound(m *mesh.Mesh, pairs []mesh.Pair) int {
	demand := make([]int, m.Size())
	for _, pr := range pairs {
		if pr.S == pr.T {
			continue
		}
		demand[pr.S]++
		demand[pr.T]++
	}
	best := 0
	for v, dm := range demand {
		if dm == 0 {
			continue
		}
		deg := m.Degree(mesh.NodeID(v))
		lb := (dm + deg - 1) / deg
		if lb > best {
			best = lb
		}
	}
	return best
}

// CongestionLowerBound combines all certificates into a single lower
// bound on the optimal congestion C* of the routing problem.
func CongestionLowerBound(dc *decomp.Decomposition, pairs []mesh.Pair) int {
	m := dc.Mesh()
	b, _ := BoundaryCongestion(dc, pairs)
	lb := int(b)
	if float64(lb) < b {
		lb++ // ceil
	}
	if w := WorkLowerBound(m, pairs); w > lb {
		lb = w
	}
	if n := NodeDemandLowerBound(m, pairs); n > lb {
		lb = n
	}
	if lb == 0 && len(pairs) > 0 {
		for _, pr := range pairs {
			if pr.S != pr.T {
				lb = 1
				break
			}
		}
	}
	return lb
}

// Report bundles the headline metrics of one path-selection run.
type Report struct {
	Congestion int
	Dilation   int
	MaxStretch float64
	AvgStretch float64
	LowerBound int // lower bound on C*
}

// Evaluate computes the full report for a path set against its problem.
func Evaluate(dc *decomp.Decomposition, pairs []mesh.Pair, paths []mesh.Path) Report {
	m := dc.Mesh()
	maxS, avgS := StretchStats(m, paths)
	return Report{
		Congestion: Congestion(m, paths),
		Dilation:   Dilation(paths),
		MaxStretch: maxS,
		AvgStretch: avgS,
		LowerBound: CongestionLowerBound(dc, pairs),
	}
}

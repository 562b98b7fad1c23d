package mesh

import "fmt"

// Seg is one axis-aligned run of a path: |Run| consecutive hops along
// dimension Dim, in the +direction when Run > 0 and the -direction when
// Run < 0. Run is never zero in a valid SegPath.
type Seg struct {
	Dim int32
	Run int32
}

// SegPath is the run-length representation of a walk: a start node
// followed by axis-aligned runs. Algorithm H builds paths dimension by
// dimension, so a path of length L is naturally O(d · chain length)
// runs rather than L+1 node ids — at side 256 that is a handful of
// segments instead of kilobytes of hops. A single-node path has no
// segments; the empty path (no nodes at all) is Start == -1.
//
// SegPath and the hop-by-hop Path are interconvertible: Expand
// materializes the node sequence, Path.Compress recovers the canonical
// run form (maximal runs, split at every direction or dimension
// change), and Expand∘Compress is the identity on valid walks.
type SegPath struct {
	Start NodeID
	Segs  []Seg
}

// Len returns the number of edges of the path (the paper's |p|).
func (sp SegPath) Len() int {
	l := 0
	for _, sg := range sp.Segs {
		if sg.Run < 0 {
			l -= int(sg.Run)
		} else {
			l += int(sg.Run)
		}
	}
	return l
}

// Source returns the first node of the path.
func (sp SegPath) Source() NodeID { return sp.Start }

// Clone returns a deep copy of sp.
func (sp SegPath) Clone() SegPath {
	out := SegPath{Start: sp.Start}
	if sp.Segs != nil {
		out.Segs = append([]Seg(nil), sp.Segs...)
	}
	return out
}

// Dest returns the last node of the path, in O(len(Segs)) arithmetic
// without expanding. It panics when a run steps off the mesh; use
// ValidateSeg first when the input is untrusted.
func (sp SegPath) Dest(m *Mesh) NodeID {
	u := sp.Start
	for _, sg := range sp.Segs {
		u = m.runEnd(u, int(sg.Dim), int(sg.Run))
	}
	return u
}

// runEnd returns the node |run| steps from u along dim (sign of run is
// the direction), panicking when the run leaves the mesh.
func (m *Mesh) runEnd(u NodeID, dim, run int) NodeID {
	if run == 0 {
		return u
	}
	s := m.dims[dim]
	st := m.strides[dim]
	ci := (int(u) / st) % s
	if m.wrapDim(dim) {
		nci := ((ci+run)%s + s) % s
		return u + NodeID((nci-ci)*st)
	}
	nci := ci + run
	if nci < 0 || nci > s-1 {
		panic(fmt.Sprintf("mesh: run of %d along dim %d from coordinate %d leaves side %d",
			run, dim, ci, s))
	}
	return u + NodeID(run*st)
}

// ValidateSeg checks that sp is a walk on m from src to dst: a valid
// start node, every run non-empty and staying on the mesh, and the
// endpoints as given. It runs in O(len(Segs)), never expanding.
func (m *Mesh) ValidateSeg(sp SegPath, src, dst NodeID) error {
	if sp.Start >= 0 && sp.Start != src {
		return fmt.Errorf("mesh: segment path starts at %d, want source %d", sp.Start, src)
	}
	u, err := m.SegWalkEnd(sp)
	if err != nil {
		return err
	}
	if u != dst {
		return fmt.Errorf("mesh: segment path ends at %d, want destination %d", u, dst)
	}
	return nil
}

// SegWalkEnd checks that sp is a walk on m — a valid start node, every
// run non-empty and staying on the mesh — and returns its final node.
// It is ValidateSeg without the endpoint pinning, for callers that do
// not know the intended endpoints (wire decoding, cross-mesh checks).
func (m *Mesh) SegWalkEnd(sp SegPath) (NodeID, error) {
	if sp.Start < 0 {
		return -1, fmt.Errorf("mesh: empty segment path")
	}
	if int(sp.Start) >= m.size {
		return -1, fmt.Errorf("mesh: segment path start %d out of range [0,%d)", sp.Start, m.size)
	}
	// Track the walk's coordinates so no run needs a division.
	var buf [8]int
	coords := buf[:0]
	if len(m.dims) > len(buf) {
		coords = make([]int, 0, len(m.dims))
	}
	u := int(sp.Start)
	for v, i := u, 0; i < len(m.dims); i++ {
		coords = append(coords, v%m.dims[i])
		v /= m.dims[i]
	}
	for i, sg := range sp.Segs {
		dim, run := int(sg.Dim), int(sg.Run)
		if dim < 0 || dim >= len(m.dims) {
			return -1, fmt.Errorf("mesh: segment %d: dimension %d out of range [0,%d)", i, dim, len(m.dims))
		}
		if run == 0 {
			return -1, fmt.Errorf("mesh: segment %d: empty run along dimension %d", i, dim)
		}
		s := m.dims[dim]
		ci := coords[dim]
		nci := ci + run
		if m.wrapDim(dim) {
			if nci < 0 || nci >= s { // across the seam; a lap needs the modulus
				nci = (nci%s + s) % s
			}
		} else if nci < 0 || nci > s-1 {
			return -1, fmt.Errorf("mesh: segment %d: run of %d along dim %d from coordinate %d leaves side %d",
				i, run, dim, ci, s)
		}
		coords[dim] = nci
		u += (nci - ci) * m.strides[dim]
	}
	return NodeID(u), nil
}

// Expand materializes the hop-by-hop Path of sp. The result of
// expanding a selector's SegPath is byte-identical to the Path the
// legacy hop-building selector produces. Expanding the empty path
// (Start == -1) yields nil.
func (sp SegPath) Expand(m *Mesh) Path {
	if sp.Start < 0 {
		return nil
	}
	return sp.AppendExpand(m, make(Path, 0, sp.Len()+1))
}

// AppendExpand appends sp's full node sequence (including the start
// node) to dst and returns it. It is the allocation-free counterpart of
// Expand for callers that reuse a buffer. Panics when a run steps off
// the mesh.
func (sp SegPath) AppendExpand(m *Mesh, dst Path) Path {
	dst = append(dst, sp.Start)
	u := int(sp.Start)
	for _, sg := range sp.Segs {
		dim := int(sg.Dim)
		s := m.dims[dim]
		st := m.strides[dim]
		wrap := m.wrapDim(dim)
		ci := (u / st) % s
		steps, dir := int(sg.Run), 1
		if steps < 0 {
			steps, dir = -steps, -1
		}
		for k := 0; k < steps; k++ {
			switch {
			case dir > 0 && ci < s-1:
				u += st
				ci++
			case dir > 0 && wrap:
				u -= (s - 1) * st
				ci = 0
			case dir < 0 && ci > 0:
				u -= st
				ci--
			case dir < 0 && wrap:
				u += (s - 1) * st
				ci = s - 1
			default:
				panic(fmt.Sprintf("mesh: segment run of %d along dim %d leaves side %d",
					sg.Run, dim, s))
			}
			dst = append(dst, NodeID(u))
		}
	}
	return dst
}

// Compress converts a hop-by-hop path to its canonical run form:
// maximal runs, split exactly where the walk changes dimension or
// direction. Expand∘Compress is the identity on every valid walk,
// cycles and all. It panics on non-adjacent consecutive nodes; use
// Validate first when the input is untrusted.
func (p Path) Compress(m *Mesh) SegPath {
	if len(p) == 0 {
		return SegPath{Start: -1}
	}
	sp := SegPath{Start: p[0]}
	hint := 0
	for i := 1; i < len(p); i++ {
		dim, dir, ok := m.hopDecode(p[i-1], p[i], hint)
		if !ok {
			panic(fmt.Sprintf("mesh: invalid path step %v -> %v",
				m.CoordOf(p[i-1]), m.CoordOf(p[i])))
		}
		hint = dim
		run := int32(dir)
		if n := len(sp.Segs); n > 0 && sp.Segs[n-1].Dim == int32(dim) &&
			(sp.Segs[n-1].Run > 0) == (run > 0) {
			sp.Segs[n-1].Run += run
		} else {
			sp.Segs = append(sp.Segs, Seg{Dim: int32(dim), Run: run})
		}
	}
	return sp
}

// hopDecode resolves the single hop a -> b into its dimension and
// direction, trying dimension hint first (consecutive hops of a run
// share it, so the common case is one comparison). ok is false when a
// and b are not adjacent.
func (m *Mesh) hopDecode(a, b NodeID, hint int) (dim, dir int, ok bool) {
	delta := int(b) - int(a)
	if delta == 0 {
		return 0, 0, false
	}
	if hint >= 0 && hint < len(m.dims) {
		if dir, ok := m.hopInDim(a, delta, hint); ok {
			return hint, dir, true
		}
	}
	for i := range m.dims {
		if i == hint {
			continue
		}
		if dir, ok := m.hopInDim(a, delta, i); ok {
			return i, dir, true
		}
	}
	return 0, 0, false
}

// hopInDim reports whether the id delta of a hop leaving a is a legal
// single step along dim, and in which direction. Deltas are unambiguous
// across dimensions — (side-1)·stride of a wrapping dimension lies
// strictly between adjacent strides — so the per-dimension coordinate
// checks only reject genuinely invalid steps.
func (m *Mesh) hopInDim(a NodeID, delta, dim int) (int, bool) {
	st := m.strides[dim]
	s := m.dims[dim]
	switch delta {
	case st:
		if (int(a)/st)%s < s-1 {
			return 1, true
		}
	case -st:
		if (int(a)/st)%s > 0 {
			return -1, true
		}
	}
	if m.wrapDim(dim) {
		switch delta {
		case -(s - 1) * st:
			if (int(a)/st)%s == s-1 {
				return 1, true
			}
		case (s - 1) * st:
			if (int(a)/st)%s == 0 {
				return -1, true
			}
		}
	}
	return 0, false
}

// RunEdges calls fn with the EdgeID of every edge of the run of |run|
// steps from start along dim (sign of run is the direction) and
// returns the node the run ends at. The loop is pure stride
// arithmetic — one add and one compare per hop, no division and no
// EdgeBetween — which is what makes bulk load accounting on segments
// cheap. Panics when the run leaves the mesh.
func (m *Mesh) RunEdges(start NodeID, dim, run int, fn func(e EdgeID)) NodeID {
	if run == 0 {
		return start
	}
	s := m.dims[dim]
	st := m.strides[dim]
	wrap := m.wrapDim(dim)
	base := dim * m.size
	u := int(start)
	ci := (u / st) % s
	steps, dir := run, 1
	if steps < 0 {
		steps, dir = -steps, -1
	}
	for k := 0; k < steps; k++ {
		switch {
		case dir > 0 && ci < s-1:
			fn(EdgeID(base + u)) // +dim edge is owned by its lower node
			u += st
			ci++
		case dir > 0 && wrap:
			fn(EdgeID(base + u)) // wrap edge is owned by the side-1 node
			u -= (s - 1) * st
			ci = 0
		case dir < 0 && ci > 0:
			u -= st
			ci--
			fn(EdgeID(base + u))
		case dir < 0 && wrap:
			u += (s - 1) * st
			ci = s - 1
			fn(EdgeID(base + u))
		default:
			panic(fmt.Sprintf("mesh: run of %d along dim %d leaves side %d", run, dim, s))
		}
	}
	return NodeID(u)
}

// SegPathEdges calls fn with the EdgeID of every edge of sp, in order,
// without expanding. Panics when a run steps off the mesh.
func (m *Mesh) SegPathEdges(sp SegPath, fn func(e EdgeID)) {
	if sp.Start < 0 {
		return
	}
	u := sp.Start
	for _, sg := range sp.Segs {
		u = m.RunEdges(u, int(sg.Dim), int(sg.Run), fn)
	}
}

// StretchSeg returns |sp| / dist(src,dst) computed on runs. For
// src == dst the stretch is 1.
func (m *Mesh) StretchSeg(sp SegPath, src, dst NodeID) float64 {
	d := m.Dist(src, dst)
	if d == 0 {
		return 1
	}
	return float64(sp.Len()) / float64(d)
}

// AppendStaircaseSegs appends the staircase path from the node at
// coordinate a to the node at coordinate b to dst as runs — at most one
// segment per dimension, in perm order, with the exact steps/direction
// arithmetic of AppendStaircase (torus runs take the shorter ring
// direction, ties +1) — and also returns the staircase's length in
// hops. A leading run that continues dst's trailing segment (same
// dimension, same direction) is merged into it, so concatenating
// staircases yields the canonical run form directly. a and b must be
// coordinates of m (every component in [0, side)); working on them
// keeps the waypoint-to-waypoint construction free of divisions.
func (m *Mesh) AppendStaircaseSegs(dst []Seg, a, b Coord, perm []int) ([]Seg, int) {
	hops := 0
	for _, dim := range perm {
		s := m.dims[dim]
		delta := b[dim] - a[dim]
		steps, dir := delta, 1
		if steps < 0 {
			steps, dir = -steps, -1
		}
		if m.wrapDim(dim) {
			fwd := delta
			if fwd < 0 {
				fwd += s
			}
			if fwd <= s-fwd {
				steps, dir = fwd, 1
			} else {
				steps, dir = s-fwd, -1
			}
		}
		if steps == 0 {
			continue
		}
		hops += steps
		run := int32(steps)
		if dir < 0 {
			run = -run
		}
		if n := len(dst); n > 0 && dst[n-1].Dim == int32(dim) &&
			(dst[n-1].Run > 0) == (run > 0) {
			dst[n-1].Run += run
		} else {
			dst = append(dst, Seg{Dim: int32(dim), Run: run})
		}
	}
	return dst, hops
}

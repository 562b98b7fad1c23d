package mesh

import (
	"fmt"
	"strings"
)

// Box is an axis-aligned submesh [Lo_0,Hi_0]x...x[Lo_{d-1},Hi_{d-1}]
// with inclusive endpoints, matching the paper's submesh notation
// "[0,3][2,5]". A Box need not be clipped to any particular mesh; use
// Mesh.ClipBox to intersect with the mesh extent.
type Box struct {
	Lo, Hi Coord
}

// NewBox builds a box from inclusive corner coordinates. It panics if
// the corners have mismatched dimension or are inverted.
func NewBox(lo, hi Coord) Box {
	if len(lo) != len(hi) {
		panic("mesh: box corners of different dimension")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("mesh: inverted box corner in dimension %d: [%d,%d]", i, lo[i], hi[i]))
		}
	}
	return Box{Lo: lo.Clone(), Hi: hi.Clone()}
}

// CubeAt returns the box with low corner lo and equal side length side
// in every dimension.
func CubeAt(lo Coord, side int) Box {
	hi := make(Coord, len(lo))
	for i := range lo {
		hi[i] = lo[i] + side - 1
	}
	return Box{Lo: lo.Clone(), Hi: hi}
}

// Dim returns the dimensionality of the box.
func (b Box) Dim() int { return len(b.Lo) }

// Side returns the number of nodes along dimension i.
func (b Box) Side(i int) int { return b.Hi[i] - b.Lo[i] + 1 }

// MinSide returns the smallest side length.
func (b Box) MinSide() int {
	min := b.Side(0)
	for i := 1; i < b.Dim(); i++ {
		if s := b.Side(i); s < min {
			min = s
		}
	}
	return min
}

// MaxSide returns the largest side length.
func (b Box) MaxSide() int {
	max := b.Side(0)
	for i := 1; i < b.Dim(); i++ {
		if s := b.Side(i); s > max {
			max = s
		}
	}
	return max
}

// Size returns the number of nodes in the box.
func (b Box) Size() int {
	n := 1
	for i := range b.Lo {
		n *= b.Side(i)
	}
	return n
}

// Contains reports whether coordinate c lies inside the box.
func (b Box) Contains(c Coord) bool {
	if len(c) != len(b.Lo) {
		return false
	}
	for i := range c {
		if c[i] < b.Lo[i] || c[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	for i := range b.Lo {
		if o.Lo[i] < b.Lo[i] || o.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Equal reports whether b and o denote the same box.
func (b Box) Equal(o Box) bool {
	return b.Lo.Equal(o.Lo) && b.Hi.Equal(o.Hi)
}

// Intersect returns the intersection of b and o and whether it is
// non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	lo := make(Coord, len(b.Lo))
	hi := make(Coord, len(b.Lo))
	for i := range b.Lo {
		lo[i] = b.Lo[i]
		if o.Lo[i] > lo[i] {
			lo[i] = o.Lo[i]
		}
		hi[i] = b.Hi[i]
		if o.Hi[i] < hi[i] {
			hi[i] = o.Hi[i]
		}
		if lo[i] > hi[i] {
			return Box{}, false
		}
	}
	return Box{Lo: lo, Hi: hi}, true
}

// Overlaps reports whether b and o share at least one node.
func (b Box) Overlaps(o Box) bool {
	_, ok := b.Intersect(o)
	return ok
}

// String renders the box in the paper's notation, e.g. "[0,3][2,5]".
func (b Box) String() string {
	var sb strings.Builder
	for i := range b.Lo {
		fmt.Fprintf(&sb, "[%d,%d]", b.Lo[i], b.Hi[i])
	}
	return sb.String()
}

// Extent returns the box covering the whole mesh.
func (m *Mesh) Extent() Box {
	lo := make(Coord, len(m.dims))
	hi := make(Coord, len(m.dims))
	for i, s := range m.dims {
		hi[i] = s - 1
	}
	return Box{Lo: lo, Hi: hi}
}

// ClipBox intersects b with the mesh extent; ok=false when the
// intersection is empty.
func (m *Mesh) ClipBox(b Box) (Box, bool) {
	return b.Intersect(m.Extent())
}

// BoundingBox returns the smallest box containing both coordinates,
// the region R of Lemma 4.1.
func BoundingBox(a, b Coord) Box {
	lo := make(Coord, len(a))
	hi := make(Coord, len(a))
	for i := range a {
		if a[i] <= b[i] {
			lo[i], hi[i] = a[i], b[i]
		} else {
			lo[i], hi[i] = b[i], a[i]
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// OutDegree returns out(M'), the number of mesh edges leaving box b:
// edges with exactly one endpoint inside b (paper §2, used by the
// boundary-congestion lower bound B). On the torus, b may be an
// extended (wrapping) box with Hi >= side; every face of a dimension
// the box does not fully cover has outgoing edges.
func (m *Mesh) OutDegree(b Box) int {
	if m.wrap {
		lens := make([]int, len(m.dims))
		for i := range m.dims {
			lens[i] = b.Side(i)
			if lens[i] > m.dims[i] {
				lens[i] = m.dims[i]
			}
		}
		out := 0
		for i, s := range m.dims {
			face := 1
			for j := range m.dims {
				if j != i {
					face *= lens[j]
				}
			}
			switch {
			case lens[i] >= s:
				// Box covers the whole ring: no outgoing edges here.
			case m.wrapDim(i):
				out += 2 * face
			default:
				// Open (side <= 2) dimension on a torus: behave like
				// the mesh.
				if b.Lo[i] > 0 {
					out += face
				}
				if b.Lo[i]+lens[i]-1 < s-1 {
					out += face
				}
			}
		}
		return out
	}
	clipped, ok := m.ClipBox(b)
	if !ok {
		return 0
	}
	out := 0
	for i := range m.dims {
		// Faces perpendicular to dimension i: the face area is the
		// product of the other side lengths; each face node contributes
		// one outgoing edge when the face is not flush with the mesh
		// boundary.
		face := 1
		for j := range m.dims {
			if j != i {
				face *= clipped.Side(j)
			}
		}
		if clipped.Lo[i] > 0 {
			out += face
		}
		if clipped.Hi[i] < m.dims[i]-1 {
			out += face
		}
	}
	return out
}

// Fold maps coordinate v of dimension dim into [0, side) — the
// coordinate arithmetic of extended (wrapping) torus boxes produces
// components >= side or < 0.
func (m *Mesh) Fold(dim, v int) int {
	if s := m.dims[dim]; v < 0 || v >= s {
		v = (v%s + s) % s
	}
	return v
}

// BoxContains reports whether coordinate c lies in box b under the
// mesh's topology: plain interval containment on the open mesh,
// wrap-aware containment for extended torus boxes.
func (m *Mesh) BoxContains(b Box, c Coord) bool {
	if !m.wrap {
		return b.Contains(c)
	}
	for i, s := range m.dims {
		v := c[i]
		if m.wrapDim(i) {
			for v < b.Lo[i] {
				v += s
			}
		}
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

// BoxContainsBox reports whether box o lies entirely inside box b
// under the mesh's topology (both may be extended torus boxes).
func (m *Mesh) BoxContainsBox(b, o Box) bool {
	if !m.wrap {
		return b.ContainsBox(o)
	}
	for i, s := range m.dims {
		lo := o.Lo[i]
		if m.wrapDim(i) {
			for lo < b.Lo[i] {
				lo += s
			}
		}
		if lo < b.Lo[i] || lo+o.Side(i)-1 > b.Hi[i] {
			return false
		}
	}
	return true
}

// ForEachNode calls fn with every node of the box: mesh-clipped on
// the open mesh, wrap-aware (extended boxes allowed) on the torus.
// The coordinate passed to fn is reused between calls; clone it to
// retain. On the torus the coordinate is folded into range.
func (m *Mesh) ForEachNode(b Box, fn func(c Coord, id NodeID)) {
	if m.wrap {
		lens := make([]int, len(m.dims))
		for i := range m.dims {
			lens[i] = b.Side(i)
			if lens[i] > m.dims[i] {
				lens[i] = m.dims[i]
			}
		}
		off := make([]int, len(m.dims))
		c := make(Coord, len(m.dims))
		for {
			for i := range c {
				c[i] = (b.Lo[i] + off[i]) % m.dims[i]
			}
			fn(c, m.Node(c))
			i := 0
			for i < len(off) {
				off[i]++
				if off[i] < lens[i] {
					break
				}
				off[i] = 0
				i++
			}
			if i == len(off) {
				return
			}
		}
	}
	clipped, ok := m.ClipBox(b)
	if !ok {
		return
	}
	c := clipped.Lo.Clone()
	for {
		fn(c, m.Node(c))
		i := 0
		for i < len(c) {
			c[i]++
			if c[i] <= clipped.Hi[i] {
				break
			}
			c[i] = clipped.Lo[i]
			i++
		}
		if i == len(c) {
			return
		}
	}
}

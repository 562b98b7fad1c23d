// Package mesh implements the d-dimensional mesh network of the paper
// "Optimal Oblivious Path Selection on the Mesh" (Busch, Magdon-Ismail,
// Xi; IPPS 2005), §2 Preliminaries.
//
// The mesh M is a d-dimensional grid of nodes with side length m_i in
// dimension i. A link connects a node with each of its up-to-2d
// neighbors. Nodes are addressed either by a Coord (one integer per
// dimension, the top-left node being the all-zero coordinate) or by a
// linear NodeID. Undirected edges have stable EdgeIDs so that
// congestion can be tallied in flat slices.
package mesh

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// NodeID is the linear index of a mesh node, in [0, Size()).
type NodeID int

// Coord is a point of the mesh, one entry per dimension.
type Coord []int

// Clone returns a copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o denote the same point.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// L1 returns the L1 (shortest path) distance between c and o.
func (c Coord) L1(o Coord) int {
	d := 0
	for i := range c {
		if c[i] > o[i] {
			d += c[i] - o[i]
		} else {
			d += o[i] - c[i]
		}
	}
	return d
}

// String renders the coordinate as "(x,y,...)".
func (c Coord) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Mesh is an immutable d-dimensional mesh topology. With wrap enabled
// it is the corresponding torus: every dimension closes into a ring
// (the topology the paper's proofs temporarily assume for Lemmas 3.3
// and 4.1). Dimensions of side 2 are treated as open even on the
// torus, because the wrap edge would duplicate the existing one.
type Mesh struct {
	dims    []int // side length per dimension
	strides []int // linearization strides; strides[0] == 1
	size    int   // total node count, n = prod dims
	edges   int   // total undirected edge count
	wrap    bool  // torus topology

	// Packed coordinates (see packNode): dimension i occupies the
	// value bits cmask[i]<<cshift[i] plus one guard bit just above
	// them; cguard collects the guard bits. Side-1 dimensions take no
	// bits at all. A side-s dimension needs bits.Len(s-1)+1 ≤ 2·log₂s
	// bits and sizes are capped at 2^31, so every mesh fits in 62.
	cshift []uint
	cmask  []uint64
	cguard uint64
}

// New constructs a mesh with the given side lengths. Each side must be
// at least 1 and there must be at least one dimension.
func New(dims ...int) (*Mesh, error) {
	return build(false, dims...)
}

// NewTorus constructs a torus with the given side lengths.
func NewTorus(dims ...int) (*Mesh, error) {
	return build(true, dims...)
}

func build(wrap bool, dims ...int) (*Mesh, error) {
	if len(dims) == 0 {
		return nil, errors.New("mesh: need at least one dimension")
	}
	m := &Mesh{
		dims:    append([]int(nil), dims...),
		strides: make([]int, len(dims)),
		size:    1,
		wrap:    wrap,
	}
	for i, s := range dims {
		if s < 1 {
			return nil, fmt.Errorf("mesh: side %d of dimension %d must be >= 1", s, i)
		}
		m.strides[i] = m.size
		if m.size > (1<<31)/s {
			return nil, fmt.Errorf("mesh: size overflow with side %d in dimension %d", s, i)
		}
		m.size *= s
	}
	m.cshift = make([]uint, len(dims))
	m.cmask = make([]uint64, len(dims))
	off := uint(0)
	for i, s := range dims {
		if s == 1 {
			continue
		}
		w := uint(bits.Len(uint(s - 1)))
		m.cshift[i] = off
		m.cmask[i] = 1<<w - 1
		m.cguard |= 1 << (off + w)
		off += w + 1
	}
	for _, s := range dims {
		switch {
		case s <= 1:
		case wrap && s > 2:
			m.edges += s * (m.size / s)
		default:
			m.edges += (s - 1) * (m.size / s)
		}
	}
	return m, nil
}

// Wrap reports whether the topology is a torus.
func (m *Mesh) Wrap() bool { return m.wrap }

// wrapDim reports whether dimension i actually wraps (torus and side
// at least 3).
func (m *Mesh) wrapDim(i int) bool { return m.wrap && m.dims[i] > 2 }

// WrapDim reports whether dimension i actually wraps: torus topology
// and side at least 3 (a side-2 ring would duplicate the open edge).
func (m *Mesh) WrapDim(i int) bool { return m.wrapDim(i) }

// MustNew is New but panics on error; for tests and fixed-size tools.
func MustNew(dims ...int) *Mesh {
	m, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return m
}

// Square constructs a d-dimensional mesh with equal side lengths, the
// shape all of the paper's constructions assume (side = 2^k).
func Square(d, side int) (*Mesh, error) {
	if d < 1 {
		return nil, fmt.Errorf("mesh: dimension %d must be >= 1", d)
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = side
	}
	return New(dims...)
}

// SquareTorus constructs a d-dimensional torus with equal side lengths.
func SquareTorus(d, side int) (*Mesh, error) {
	if d < 1 {
		return nil, fmt.Errorf("mesh: dimension %d must be >= 1", d)
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = side
	}
	return NewTorus(dims...)
}

// MustSquareTorus is SquareTorus but panics on error.
func MustSquareTorus(d, side int) *Mesh {
	m, err := SquareTorus(d, side)
	if err != nil {
		panic(err)
	}
	return m
}

// MustSquare is Square but panics on error.
func MustSquare(d, side int) *Mesh {
	m, err := Square(d, side)
	if err != nil {
		panic(err)
	}
	return m
}

// Dim returns the number of dimensions d.
func (m *Mesh) Dim() int { return len(m.dims) }

// Side returns the side length in dimension i.
func (m *Mesh) Side(i int) int { return m.dims[i] }

// Stride returns the linearization stride of dimension i: adjacent
// nodes along i differ by Stride(i) in NodeID (Stride(0) == 1).
func (m *Mesh) Stride(i int) int { return m.strides[i] }

// Sides returns a copy of all side lengths.
func (m *Mesh) Sides() []int { return append([]int(nil), m.dims...) }

// Size returns the number of nodes n.
func (m *Mesh) Size() int { return m.size }

// NumEdges returns the number of undirected edges E.
func (m *Mesh) NumEdges() int { return m.edges }

// MaxSide returns the largest side length.
func (m *Mesh) MaxSide() int {
	max := 0
	for _, s := range m.dims {
		if s > max {
			max = s
		}
	}
	return max
}

// IsSquarePow2 reports whether all sides are equal to the same power of
// two, and if so returns k with side = 2^k.
func (m *Mesh) IsSquarePow2() (k int, ok bool) {
	s := m.dims[0]
	for _, v := range m.dims {
		if v != s {
			return 0, false
		}
	}
	if s&(s-1) != 0 {
		return 0, false
	}
	for s > 1 {
		s >>= 1
		k++
	}
	return k, true
}

// InBounds reports whether c is a valid coordinate of m.
func (m *Mesh) InBounds(c Coord) bool {
	if len(c) != len(m.dims) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= m.dims[i] {
			return false
		}
	}
	return true
}

// Node linearizes a coordinate. It panics when c is out of bounds; use
// InBounds first when the input is untrusted.
func (m *Mesh) Node(c Coord) NodeID {
	if !m.InBounds(c) {
		panic(fmt.Sprintf("mesh: coordinate %v out of bounds for sides %v", c, m.dims))
	}
	id := 0
	for i, v := range c {
		id += v * m.strides[i]
	}
	return NodeID(id)
}

// CoordOf returns a freshly allocated coordinate for id.
func (m *Mesh) CoordOf(id NodeID) Coord {
	c := make(Coord, len(m.dims))
	m.CoordInto(id, c)
	return c
}

// CoordInto writes the coordinate of id into dst (len must be d).
func (m *Mesh) CoordInto(id NodeID, dst Coord) {
	v := int(id)
	if v < 0 || v >= m.size {
		panic(fmt.Sprintf("mesh: node id %d out of range [0,%d)", v, m.size))
	}
	for i, s := range m.dims {
		dst[i] = v % s
		v /= s
	}
}

// Dist returns the shortest-path distance between two nodes: the L1
// distance on the mesh, the wrap-aware ring distance per dimension on
// the torus.
func (m *Mesh) Dist(a, b NodeID) int {
	av, bv := int(a), int(b)
	d := 0
	for i, s := range m.dims {
		ai, bi := av%s, bv%s
		diff := ai - bi
		if diff < 0 {
			diff = -diff
		}
		if m.wrapDim(i) && s-diff < diff {
			diff = s - diff
		}
		d += diff
		av /= s
		bv /= s
	}
	return d
}

// Neighbors appends the neighbors of id to buf and returns it. The
// order is -dim0, +dim0, -dim1, +dim1, ...
func (m *Mesh) Neighbors(id NodeID, buf []NodeID) []NodeID {
	v := int(id)
	rem := v
	for i, s := range m.dims {
		ci := rem % s
		rem /= s
		switch {
		case ci > 0:
			buf = append(buf, NodeID(v-m.strides[i]))
		case m.wrapDim(i):
			buf = append(buf, NodeID(v+(s-1)*m.strides[i]))
		}
		switch {
		case ci < s-1:
			buf = append(buf, NodeID(v+m.strides[i]))
		case m.wrapDim(i):
			buf = append(buf, NodeID(v-(s-1)*m.strides[i]))
		}
	}
	return buf
}

// Degree returns the number of neighbors of id.
func (m *Mesh) Degree(id NodeID) int {
	v := int(id)
	deg := 0
	for i, s := range m.dims {
		ci := v % s
		v /= s
		if ci > 0 || m.wrapDim(i) {
			deg++
		}
		if ci < s-1 || m.wrapDim(i) {
			deg++
		}
	}
	return deg
}

// Step returns the node one step from id along dimension dim in
// direction dir (+1 or -1), and whether that node exists (on the
// torus a step always exists in dimensions of side >= 3).
func (m *Mesh) Step(id NodeID, dim, dir int) (NodeID, bool) {
	s := m.dims[dim]
	ci := (int(id) / m.strides[dim]) % s
	switch {
	case dir > 0 && ci < s-1:
		return id + NodeID(m.strides[dim]), true
	case dir > 0 && m.wrapDim(dim):
		return id - NodeID((s-1)*m.strides[dim]), true
	case dir < 0 && ci > 0:
		return id - NodeID(m.strides[dim]), true
	case dir < 0 && m.wrapDim(dim):
		return id + NodeID((s-1)*m.strides[dim]), true
	}
	return id, false
}

// String describes the mesh shape, e.g. "mesh 8x8" or "torus 4x4x4".
func (m *Mesh) String() string {
	var b strings.Builder
	if m.wrap {
		b.WriteString("torus ")
	} else {
		b.WriteString("mesh ")
	}
	for i, s := range m.dims {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

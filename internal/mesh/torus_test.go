package mesh

import (
	"testing"
	"testing/quick"
)

func TestTorusBasics(t *testing.T) {
	m, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Wrap() {
		t.Error("Wrap() false")
	}
	if m.String() != "torus 4x4" {
		t.Errorf("String = %q", m.String())
	}
	// Every node has degree 2d.
	for v := 0; v < m.Size(); v++ {
		if m.Degree(NodeID(v)) != 4 {
			t.Fatalf("node %d degree %d", v, m.Degree(NodeID(v)))
		}
		if nb := m.Neighbors(NodeID(v), nil); len(nb) != 4 {
			t.Fatalf("node %d has %d neighbors", v, len(nb))
		}
	}
	// Edge count: d * n for wrapping dims.
	if m.NumEdges() != 32 {
		t.Errorf("edges = %d, want 32", m.NumEdges())
	}
}

func TestTorusSide2NoDoubleEdges(t *testing.T) {
	m, err := NewTorus(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Dimension 0 (side 2) must behave like the open mesh: wrap would
	// duplicate the single edge.
	n := m.Node(Coord{0, 1})
	nb := m.Neighbors(n, nil)
	seen := map[NodeID]int{}
	for _, v := range nb {
		seen[v]++
		if seen[v] > 1 {
			t.Fatalf("duplicate neighbor %d", v)
		}
	}
	if m.Degree(n) != 3 {
		t.Errorf("degree = %d, want 3 (1 in side-2 dim + 2 in ring)", m.Degree(n))
	}
	// 4 + 8 edges.
	if m.NumEdges() != 12 {
		t.Errorf("edges = %d, want 12", m.NumEdges())
	}
}

func TestTorusDist(t *testing.T) {
	m := MustSquareTorus(2, 8)
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{7, 0}, 1}, // wrap
		{Coord{0, 0}, Coord{4, 0}, 4}, // either way
		{Coord{0, 0}, Coord{5, 0}, 3}, // wrap shorter
		{Coord{1, 1}, Coord{2, 2}, 2}, // local
		{Coord{0, 0}, Coord{7, 7}, 2}, // diagonal wrap
		{Coord{3, 3}, Coord{3, 3}, 0},
	}
	for _, c := range cases {
		if got := m.Dist(m.Node(c.a), m.Node(c.b)); got != c.want {
			t.Errorf("dist(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTorusDistSymmetricTriangle(t *testing.T) {
	m := MustSquareTorus(3, 5)
	f := func(a, b, c uint32) bool {
		x := NodeID(int(a) % m.Size())
		y := NodeID(int(b) % m.Size())
		z := NodeID(int(c) % m.Size())
		return m.Dist(x, y) == m.Dist(y, x) &&
			m.Dist(x, x) == 0 &&
			m.Dist(x, z) <= m.Dist(x, y)+m.Dist(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusEdgeBetweenMatchesDist(t *testing.T) {
	m := MustSquareTorus(2, 5)
	for a := 0; a < m.Size(); a++ {
		for b := 0; b < m.Size(); b++ {
			_, ok := m.EdgeBetween(NodeID(a), NodeID(b))
			adjacent := m.Dist(NodeID(a), NodeID(b)) == 1
			if ok != adjacent {
				t.Fatalf("EdgeBetween(%v,%v)=%v, dist=%d",
					m.CoordOf(NodeID(a)), m.CoordOf(NodeID(b)), ok,
					m.Dist(NodeID(a), NodeID(b)))
			}
		}
	}
}

func TestTorusEdgesEnumeration(t *testing.T) {
	m := MustSquareTorus(2, 4)
	seen := map[EdgeID]bool{}
	m.Edges(func(e EdgeID) {
		if !m.ValidEdge(e) {
			t.Errorf("invalid edge %d enumerated", e)
		}
		if seen[e] {
			t.Errorf("edge %d twice", e)
		}
		seen[e] = true
		lo, hi, _ := m.EdgeEndpoints(e)
		if m.Dist(lo, hi) != 1 {
			t.Errorf("edge %d endpoints not adjacent", e)
		}
	})
	if len(seen) != m.NumEdges() {
		t.Errorf("enumerated %d, want %d", len(seen), m.NumEdges())
	}
	// Each undirected edge appears exactly once: cross-check no pair
	// of enumerated edges shares both endpoints.
	type pair [2]NodeID
	pairs := map[pair]bool{}
	m.Edges(func(e EdgeID) {
		lo, hi, _ := m.EdgeEndpoints(e)
		if lo > hi {
			lo, hi = hi, lo
		}
		p := pair{lo, hi}
		if pairs[p] {
			t.Errorf("edge %v duplicated", p)
		}
		pairs[p] = true
	})
}

func TestTorusStep(t *testing.T) {
	m := MustSquareTorus(2, 4)
	n := m.Node(Coord{3, 2})
	up, ok := m.Step(n, 0, +1)
	if !ok || !m.CoordOf(up).Equal(Coord{0, 2}) {
		t.Errorf("wrap step = %v ok=%v", m.CoordOf(up), ok)
	}
	down, ok := m.Step(m.Node(Coord{0, 2}), 0, -1)
	if !ok || !m.CoordOf(down).Equal(Coord{3, 2}) {
		t.Errorf("wrap step -1 = %v ok=%v", m.CoordOf(down), ok)
	}
}

func TestTorusStaircaseShortest(t *testing.T) {
	m := MustSquareTorus(2, 8)
	f := func(a, b uint32) bool {
		s := NodeID(int(a) % m.Size())
		d := NodeID(int(b) % m.Size())
		p := m.StaircasePath(s, d, []int{0, 1})
		if m.Validate(p, s, d) != nil {
			return false
		}
		return p.Len() == m.Dist(s, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// A wrap case explicitly.
	p := m.StaircasePath(m.Node(Coord{7, 0}), m.Node(Coord{1, 0}), []int{0, 1})
	if p.Len() != 2 {
		t.Errorf("wrap staircase length %d, want 2", p.Len())
	}
}

func TestTorusOutDegree(t *testing.T) {
	m := MustSquareTorus(2, 8)
	brute := func(b Box) int {
		cnt := 0
		m.Edges(func(e EdgeID) {
			lo, hi, _ := m.EdgeEndpoints(e)
			if m.BoxContains(b, m.CoordOf(lo)) != m.BoxContains(b, m.CoordOf(hi)) {
				cnt++
			}
		})
		return cnt
	}
	boxes := []Box{
		NewBox(Coord{0, 0}, Coord{3, 3}),  // aligned
		NewBox(Coord{6, 6}, Coord{9, 9}),  // wraps both dims
		NewBox(Coord{5, 0}, Coord{10, 7}), // wraps dim0, spans dim1
		NewBox(Coord{0, 0}, Coord{7, 7}),  // whole torus -> 0
		NewBox(Coord{2, 3}, Coord{2, 3}),  // single node -> 4
	}
	for _, b := range boxes {
		if got, want := m.OutDegree(b), brute(b); got != want {
			t.Errorf("OutDegree(%v) = %d, want %d", b, got, want)
		}
	}
}

func TestTorusBoxContains(t *testing.T) {
	m := MustSquareTorus(2, 8)
	wrapBox := NewBox(Coord{6, 6}, Coord{9, 9}) // covers {6,7,0,1}^2
	for _, c := range []Coord{{6, 6}, {7, 0}, {0, 1}, {1, 7}} {
		if !m.BoxContains(wrapBox, c) {
			t.Errorf("%v should be in %v", c, wrapBox)
		}
	}
	for _, c := range []Coord{{2, 0}, {0, 2}, {5, 5}, {4, 7}} {
		if m.BoxContains(wrapBox, c) {
			t.Errorf("%v should NOT be in %v", c, wrapBox)
		}
	}
}

func TestTorusBoxContainsBox(t *testing.T) {
	m := MustSquareTorus(2, 8)
	big := NewBox(Coord{5, 5}, Coord{10, 10})  // {5..7,0..2}^2
	in := NewBox(Coord{7, 6}, Coord{8, 7})     // {7,0}x{6,7}
	out := NewBox(Coord{3, 6}, Coord{4, 7})    // x outside
	wrapIn := NewBox(Coord{6, 7}, Coord{9, 9}) // {6,7,0,1}x{7,0,1}
	if !m.BoxContainsBox(big, in) {
		t.Errorf("%v should contain %v", big, in)
	}
	if m.BoxContainsBox(big, out) {
		t.Errorf("%v should not contain %v", big, out)
	}
	if !m.BoxContainsBox(big, wrapIn) {
		t.Errorf("%v should contain %v", big, wrapIn)
	}
}

func TestTorusForEachNode(t *testing.T) {
	m := MustSquareTorus(2, 8)
	b := NewBox(Coord{6, 7}, Coord{9, 8}) // 4x2 wrapping region
	var ids []NodeID
	m.ForEachNode(b, func(c Coord, id NodeID) {
		if !m.BoxContains(b, c) {
			t.Errorf("visited %v outside box", c)
		}
		ids = append(ids, id)
	})
	if len(ids) != 8 {
		t.Fatalf("visited %d nodes, want 8", len(ids))
	}
	seen := map[NodeID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("node %d visited twice", id)
		}
		seen[id] = true
	}
}

func TestTorusFold(t *testing.T) {
	m := MustSquareTorus(2, 8)
	if m.Fold(0, 9) != 1 || m.Fold(1, -1) != 7 || m.Fold(0, -17) != 7 {
		t.Error("Fold folding wrong")
	}
	if m.Fold(0, 3) != 3 || m.Fold(1, 4) != 4 {
		t.Error("Fold identity wrong")
	}
}

package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func segMeshes() []*Mesh {
	return []*Mesh{
		MustNew(8, 8),
		MustNew(16, 16),
		MustNew(4, 4, 4),
		MustNew(3, 5, 2),
		MustNew(12, 12),
		MustSquareTorus(2, 8),
		MustSquareTorus(3, 4),
		MustSquareTorus(2, 3),
	}
}

// randomWalk builds a walk of the given number of steps starting at a
// random node, deliberately including backtracks and cycles.
func randomWalk(m *Mesh, rng *rand.Rand, steps int) Path {
	cur := NodeID(rng.Intn(m.Size()))
	p := Path{cur}
	var nb []NodeID
	for i := 0; i < steps; i++ {
		nb = m.Neighbors(cur, nb[:0])
		if len(nb) == 0 {
			break
		}
		cur = nb[rng.Intn(len(nb))]
		p = append(p, cur)
	}
	return p
}

func pathsEq(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompressExpandRoundTrip is the property test of the PR: for
// random walks — cycles, backtracks, wrap-arounds and all —
// Compress followed by Expand reproduces the walk byte for byte.
func TestCompressExpandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range segMeshes() {
		for trial := 0; trial < 100; trial++ {
			p := randomWalk(m, rng, rng.Intn(4*m.MaxSide()))
			sp := p.Compress(m)
			if err := m.ValidateSeg(sp, p.Source(), p.Dest()); err != nil {
				t.Fatalf("%v: compressed walk invalid: %v", m, err)
			}
			if sp.Len() != p.Len() {
				t.Fatalf("%v: seg len %d != path len %d", m, sp.Len(), p.Len())
			}
			back := sp.Expand(m)
			if !pathsEq(back, p) {
				t.Fatalf("%v: round trip %v -> %v -> %v", m, p, sp, back)
			}
			if got := sp.Dest(m); got != p.Dest() {
				t.Fatalf("%v: Dest = %d, want %d", m, got, p.Dest())
			}
		}
	}
}

func TestCompressZeroLengthAndEmpty(t *testing.T) {
	m := MustNew(4, 4)
	// Zero-length path: one node, no segments.
	p := Path{m.Node(Coord{2, 1})}
	sp := p.Compress(m)
	if sp.Start != p[0] || len(sp.Segs) != 0 || sp.Len() != 0 {
		t.Errorf("single-node compress = %+v", sp)
	}
	if back := sp.Expand(m); !pathsEq(back, p) {
		t.Errorf("single-node round trip = %v", back)
	}
	if err := m.ValidateSeg(sp, p[0], p[0]); err != nil {
		t.Errorf("single-node seg path invalid: %v", err)
	}
	// The empty path maps to Start == -1 and expands to nil.
	esp := Path{}.Compress(m)
	if esp.Start != -1 {
		t.Errorf("empty compress start = %d", esp.Start)
	}
	if back := esp.Expand(m); back != nil {
		t.Errorf("empty expand = %v", back)
	}
	if err := m.ValidateSeg(esp, 0, 0); err == nil {
		t.Error("empty seg path accepted by ValidateSeg")
	}
}

func TestCompressCanonical(t *testing.T) {
	m := MustNew(8, 8)
	n := func(x, y int) NodeID { return m.Node(Coord{x, y}) }
	// Straight run, a turn, then a backtrack: canonical form splits at
	// the dimension change and at the direction change.
	p := Path{n(0, 0), n(1, 0), n(2, 0), n(2, 1), n(2, 2), n(2, 1)}
	sp := p.Compress(m)
	want := []Seg{{Dim: 0, Run: 2}, {Dim: 1, Run: 2}, {Dim: 1, Run: -1}}
	if len(sp.Segs) != len(want) {
		t.Fatalf("segs = %+v, want %+v", sp.Segs, want)
	}
	for i := range want {
		if sp.Segs[i] != want[i] {
			t.Fatalf("segs = %+v, want %+v", sp.Segs, want)
		}
	}
}

func TestValidateSegRejects(t *testing.T) {
	m := MustNew(4, 4)
	a := m.Node(Coord{1, 1})
	cases := []struct {
		name string
		sp   SegPath
		src  NodeID
		dst  NodeID
	}{
		{"empty", SegPath{Start: -1}, 0, 0},
		{"start out of range", SegPath{Start: NodeID(m.Size())}, NodeID(m.Size()), 0},
		{"wrong source", SegPath{Start: a}, a + 1, a},
		{"zero run", SegPath{Start: a, Segs: []Seg{{Dim: 0, Run: 0}}}, a, a},
		{"bad dim", SegPath{Start: a, Segs: []Seg{{Dim: 2, Run: 1}}}, a, a},
		{"off the +edge", SegPath{Start: a, Segs: []Seg{{Dim: 0, Run: 3}}}, a, a},
		{"off the -edge", SegPath{Start: a, Segs: []Seg{{Dim: 1, Run: -2}}}, a, a},
		{"wrong dest", SegPath{Start: a, Segs: []Seg{{Dim: 0, Run: 1}}}, a, a},
	}
	for _, tc := range cases {
		if err := m.ValidateSeg(tc.sp, tc.src, tc.dst); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	ok := SegPath{Start: a, Segs: []Seg{{Dim: 0, Run: 2}, {Dim: 1, Run: -1}}}
	if err := m.ValidateSeg(ok, a, m.Node(Coord{3, 0})); err != nil {
		t.Errorf("valid seg path rejected: %v", err)
	}
}

func TestValidateSegTorusWrap(t *testing.T) {
	m := MustSquareTorus(2, 5)
	a := m.Node(Coord{4, 0})
	// A wrap step and a full lap are both legal walks on the torus.
	sp := SegPath{Start: a, Segs: []Seg{{Dim: 0, Run: 2}}}
	if err := m.ValidateSeg(sp, a, m.Node(Coord{1, 0})); err != nil {
		t.Errorf("wrap run rejected: %v", err)
	}
	lap := SegPath{Start: a, Segs: []Seg{{Dim: 0, Run: 5}}}
	if err := m.ValidateSeg(lap, a, a); err != nil {
		t.Errorf("full lap rejected: %v", err)
	}
	if lap.Len() != 5 {
		t.Errorf("lap len = %d", lap.Len())
	}
	if got := lap.Expand(m); len(got) != 6 || got[5] != a {
		t.Errorf("lap expand = %v", got)
	}
}

// TestSegPathEdgesMatchesPathEdges pins the run walker to the hop
// walker: both must emit the identical edge sequence.
func TestSegPathEdgesMatchesPathEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range segMeshes() {
		for trial := 0; trial < 50; trial++ {
			p := randomWalk(m, rng, rng.Intn(3*m.MaxSide()))
			var hop, seg []EdgeID
			m.PathEdges(p, func(e EdgeID) { hop = append(hop, e) })
			m.SegPathEdges(p.Compress(m), func(e EdgeID) { seg = append(seg, e) })
			if len(hop) != len(seg) {
				t.Fatalf("%v: %d hop edges vs %d seg edges", m, len(hop), len(seg))
			}
			for i := range hop {
				if hop[i] != seg[i] {
					t.Fatalf("%v: edge %d: hop %d vs seg %d (path %v)", m, i, hop[i], seg[i], p)
				}
				if !m.ValidEdge(hop[i]) {
					t.Fatalf("%v: invalid edge %d emitted", m, hop[i])
				}
			}
		}
	}
}

// TestPathEdgesMatchesEdgeBetween pins the run-aware hop decoder to
// the reference EdgeBetween lookup.
func TestPathEdgesMatchesEdgeBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range segMeshes() {
		for trial := 0; trial < 50; trial++ {
			p := randomWalk(m, rng, rng.Intn(3*m.MaxSide()))
			var got []EdgeID
			m.PathEdges(p, func(e EdgeID) { got = append(got, e) })
			if len(got) != p.Len() {
				t.Fatalf("%v: %d edges for len %d", m, len(got), p.Len())
			}
			for i := 1; i < len(p); i++ {
				want, ok := m.EdgeBetween(p[i-1], p[i])
				if !ok || got[i-1] != want {
					t.Fatalf("%v: step %d: PathEdges %d, EdgeBetween %d (ok=%v)",
						m, i, got[i-1], want, ok)
				}
			}
		}
	}
}

func TestPathEdgesPanicsOnTeleport(t *testing.T) {
	m := MustNew(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("no panic on non-adjacent step")
		}
	}()
	m.PathEdges(Path{m.Node(Coord{0, 0}), m.Node(Coord{2, 2})}, func(EdgeID) {})
}

func TestRunEdgesReturnsEnd(t *testing.T) {
	m := MustSquareTorus(2, 6)
	a := m.Node(Coord{5, 2})
	end := m.RunEdges(a, 0, 3, func(EdgeID) {})
	if want := m.Node(Coord{2, 2}); end != want {
		t.Errorf("RunEdges end = %d, want %d", end, want)
	}
	if end := m.RunEdges(a, 1, 0, func(EdgeID) { t.Error("edge on empty run") }); end != a {
		t.Errorf("empty run moved to %d", end)
	}
	back := m.RunEdges(a, 1, -2, func(EdgeID) {})
	if want := m.Node(Coord{5, 0}); back != want {
		t.Errorf("negative run end = %d, want %d", back, want)
	}
}

func TestAppendStaircaseSegsMatchesStaircase(t *testing.T) {
	meshes := []*Mesh{MustSquare(2, 8), MustSquare(3, 8), MustSquareTorus(2, 8), MustSquareTorus(3, 5)}
	perms := [][]int{{0, 1}, {1, 0}, {0, 1, 2}, {2, 1, 0}, {1, 0, 2}}
	for _, m := range meshes {
		f := func(a, b, pi uint32) bool {
			s := NodeID(int(a) % m.Size())
			d := NodeID(int(b) % m.Size())
			var perm []int
			for {
				perm = perms[int(pi)%len(perms)]
				if len(perm) == m.Dim() {
					break
				}
				pi++
			}
			hops := m.StaircasePath(s, d, perm)
			segs, n := m.AppendStaircaseSegs(nil, m.CoordOf(s), m.CoordOf(d), perm)
			sp := SegPath{Start: s, Segs: segs}
			if m.ValidateSeg(sp, s, d) != nil || n != hops.Len() {
				return false
			}
			return pathsEq(sp.Expand(m), hops)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestAppendStaircaseSegsMerges(t *testing.T) {
	m := MustNew(8, 8)
	s, mid, d := Coord{0, 0}, Coord{3, 0}, Coord{6, 2}
	// Two staircases whose junction continues along dim 0 must fuse
	// into a single run: canonical form straight out of construction.
	segs, _ := m.AppendStaircaseSegs(nil, s, mid, []int{0, 1})
	segs, _ = m.AppendStaircaseSegs(segs, mid, d, []int{0, 1})
	want := []Seg{{Dim: 0, Run: 6}, {Dim: 1, Run: 2}}
	if len(segs) != len(want) || segs[0] != want[0] || segs[1] != want[1] {
		t.Errorf("segs = %+v, want %+v", segs, want)
	}
}

func TestSegPathClone(t *testing.T) {
	sp := SegPath{Start: 3, Segs: []Seg{{Dim: 0, Run: 2}}}
	cl := sp.Clone()
	cl.Segs[0].Run = 9
	if sp.Segs[0].Run != 2 {
		t.Error("Clone aliases Segs")
	}
}

func TestStrideAccessor(t *testing.T) {
	m := MustNew(3, 4, 5)
	if m.Stride(0) != 1 || m.Stride(1) != 3 || m.Stride(2) != 12 {
		t.Errorf("strides = %d,%d,%d", m.Stride(0), m.Stride(1), m.Stride(2))
	}
}

func TestStretchSeg(t *testing.T) {
	m := MustNew(8, 8)
	s, d := m.Node(Coord{0, 0}), m.Node(Coord{3, 0})
	sp := m.StaircasePath(s, d, []int{0, 1}).Compress(m)
	if got := m.StretchSeg(sp, s, d); got != 1 {
		t.Errorf("shortest seg stretch = %v", got)
	}
	trivial := Path{s}.Compress(m)
	if got := m.StretchSeg(trivial, s, s); got != 1 {
		t.Errorf("trivial seg stretch = %v", got)
	}
}

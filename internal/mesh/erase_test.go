package mesh

import (
	"math/rand"
	"testing"
)

// eraseReference is the hop-level definition LoopErase must match:
// expand the walk, excise cycles by last occurrence, recompress.
func eraseReference(m *Mesh, start NodeID, segs []Seg) []Seg {
	return SegPath{Start: start, Segs: segs}.Expand(m).RemoveCycles().Compress(m).Segs
}

// randomRuns builds a valid raw run list of about n runs from start,
// mixing the shapes the selector's canonical output never shows: runs
// split into same-direction pieces, collinear retraces, and (on
// wrapping dimensions) runs of up to three times the side.
func randomRuns(m *Mesh, rng *rand.Rand, start NodeID, n int) []Seg {
	c := m.CoordOf(start)
	var segs []Seg
	add := func(dim, run int) {
		if run == 0 {
			return
		}
		segs = append(segs, Seg{Dim: int32(dim), Run: int32(run)})
		s := m.Side(dim)
		c[dim] = ((c[dim]+run)%s + s) % s
	}
	for len(segs) < n {
		dim := rng.Intn(m.Dim())
		s := m.Side(dim)
		var run int
		if m.WrapDim(dim) {
			run = 1 + rng.Intn(3*s)
			if rng.Intn(2) == 0 {
				run = -run
			}
		} else {
			lo, hi := -c[dim], s-1-c[dim]
			if lo == hi {
				continue
			}
			for run == 0 {
				run = lo + rng.Intn(hi-lo+1)
			}
		}
		switch rng.Intn(4) {
		case 0: // split into same-direction pieces
			a := run / 2
			add(dim, a)
			add(dim, run-a)
		case 1: // go and come back along the same line
			add(dim, run)
			add(dim, -run)
		default:
			add(dim, run)
		}
	}
	return segs
}

func mustTorus(dims ...int) *Mesh {
	m, err := NewTorus(dims...)
	if err != nil {
		panic(err)
	}
	return m
}

func segsEq(a, b []Seg) bool {
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

// TestLoopEraseMatchesReference pins LoopErase to the hop-level
// reference on canonical compressions of random walks and on raw run
// lists with split runs, retraces and multi-lap torus runs, reusing one
// EraseBuf and one output buffer across meshes and trials.
func TestLoopEraseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var eb EraseBuf
	var buf []Seg
	meshes := append(segMeshes(), MustSquareTorus(4, 3), MustNew(2, 3, 2, 4, 3), mustTorus(5, 1, 7))
	for _, m := range meshes {
		for trial := 0; trial < 200; trial++ {
			var start NodeID
			var segs []Seg
			if trial%2 == 0 {
				in := randomWalk(m, rng, rng.Intn(4*m.MaxSide())).Compress(m)
				start, segs = in.Start, in.Segs
			} else {
				start = NodeID(rng.Intn(m.Size()))
				segs = randomRuns(m, rng, start, rng.Intn(20))
			}
			want := eraseReference(m, start, segs)
			var n int
			buf, n = m.LoopErase(start, segs, &eb, buf)
			if !segsEq(buf, want) {
				t.Fatalf("%v: start %d runs %+v: got %+v, want %+v", m, start, segs, buf, want)
			}
			if wl := (SegPath{Start: start, Segs: want}).Len(); n != wl {
				t.Fatalf("%v: start %d runs %+v: length %d, want %d", m, start, segs, n, wl)
			}
		}
	}
	// Zero-length walk: no runs in, no runs out.
	m := MustNew(4, 4)
	if got, n := m.LoopErase(5, nil, &eb, buf); len(got) != 0 || n != 0 {
		t.Errorf("zero-length walk = %+v, %d", got, n)
	}
}

// TestLoopEraseCases pins the shapes the algorithm treats specially.
func TestLoopEraseCases(t *testing.T) {
	open, ring := MustNew(8, 8), MustSquareTorus(2, 6)
	for _, c := range []struct {
		name  string
		m     *Mesh
		start Coord
		segs  []Seg
		want  []Seg
	}{
		{"cycle through the start", open, Coord{2, 2},
			[]Seg{{0, 2}, {1, 2}, {0, -2}, {1, -2}, {0, 3}}, []Seg{{0, 3}}},
		{"collinear retrace", open, Coord{1, 1},
			[]Seg{{0, 5}, {0, -3}, {1, 2}}, []Seg{{0, 2}, {1, 2}}},
		{"perpendicular crossing", open, Coord{0, 2},
			[]Seg{{0, 4}, {1, 2}, {0, -2}, {1, -4}}, []Seg{{0, 2}, {1, -2}}},
		{"seam crossing", ring, Coord{4, 0},
			[]Seg{{0, 3}, {1, 1}, {0, -3}, {1, -1}, {0, 2}}, []Seg{{0, 2}}},
		{"ring lap", ring, Coord{1, 3},
			[]Seg{{0, 7}, {1, 1}}, []Seg{{0, 1}, {1, 1}}},
		{"lap backwards past the start", ring, Coord{0, 0},
			[]Seg{{1, 2}, {0, -13}}, []Seg{{1, 2}, {0, -1}}},
	} {
		start := c.m.Node(c.start)
		if ref := eraseReference(c.m, start, c.segs); !segsEq(ref, c.want) {
			t.Fatalf("%s: reference %+v, case expects %+v", c.name, ref, c.want)
		}
		var eb EraseBuf
		if got, _ := c.m.LoopErase(start, c.segs, &eb, nil); !segsEq(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestLoopErasePanicsOffSide(t *testing.T) {
	m := MustNew(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("no panic on a run leaving the mesh")
		}
	}()
	var eb EraseBuf
	m.LoopErase(m.Node(Coord{2, 0}), []Seg{{Dim: 0, Run: 2}}, &eb, nil)
}

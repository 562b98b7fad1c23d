package mesh

import "testing"

// Native fuzz targets: `go test` exercises the seed corpus; `go test
// -fuzz=FuzzX` explores further. All invariants here must hold for
// arbitrary inputs after masking into range.

func FuzzStaircasePath(f *testing.F) {
	f.Add(uint32(0), uint32(63), false, uint8(0))
	f.Add(uint32(10), uint32(53), true, uint8(1))
	f.Add(uint32(7), uint32(7), true, uint8(2))
	meshes := []*Mesh{MustSquare(2, 8), MustSquareTorus(2, 8)}
	perms := [][]int{{0, 1}, {1, 0}}
	f.Fuzz(func(t *testing.T, a, b uint32, torus bool, permSel uint8) {
		m := meshes[0]
		if torus {
			m = meshes[1]
		}
		s := NodeID(int(a) % m.Size())
		d := NodeID(int(b) % m.Size())
		perm := perms[int(permSel)%2]
		p := m.StaircasePath(s, d, perm)
		if err := m.Validate(p, s, d); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
		if p.Len() != m.Dist(s, d) {
			t.Fatalf("length %d != dist %d", p.Len(), m.Dist(s, d))
		}
		if !p.IsSimple() {
			t.Fatal("staircase not simple")
		}
	})
}

func FuzzRemoveCycles(f *testing.F) {
	f.Add(uint32(0), []byte{1, 2, 3, 0, 1})
	f.Add(uint32(5), []byte{})
	f.Add(uint32(63), []byte{0, 0, 0, 0})
	m := MustSquare(2, 8)
	f.Fuzz(func(t *testing.T, start uint32, steps []byte) {
		if len(steps) > 200 {
			steps = steps[:200]
		}
		cur := NodeID(int(start) % m.Size())
		p := Path{cur}
		for _, s := range steps {
			nb := m.Neighbors(cur, nil)
			cur = nb[int(s)%len(nb)]
			p = append(p, cur)
		}
		out := p.RemoveCycles()
		if !out.IsSimple() {
			t.Fatal("not simple after RemoveCycles")
		}
		if out.Source() != p.Source() || out.Dest() != p.Dest() {
			t.Fatal("endpoints changed")
		}
		if err := m.Validate(out, p.Source(), p.Dest()); err != nil {
			t.Fatal(err)
		}
		if out.Len() > p.Len() {
			t.Fatal("cycle removal lengthened the path")
		}
	})
}

func FuzzEdgeBetween(f *testing.F) {
	f.Add(uint32(3), uint32(4), false)
	f.Add(uint32(0), uint32(7), true)
	meshes := []*Mesh{MustSquare(2, 8), MustSquareTorus(2, 8)}
	f.Fuzz(func(t *testing.T, a, b uint32, torus bool) {
		m := meshes[0]
		if torus {
			m = meshes[1]
		}
		x := NodeID(int(a) % m.Size())
		y := NodeID(int(b) % m.Size())
		e, ok := m.EdgeBetween(x, y)
		if ok != (m.Dist(x, y) == 1) {
			t.Fatalf("EdgeBetween(%d,%d)=%v, dist=%d", x, y, ok, m.Dist(x, y))
		}
		if ok {
			if !m.ValidEdge(e) {
				t.Fatal("returned invalid edge id")
			}
			lo, hi, _ := m.EdgeEndpoints(e)
			if !(lo == x && hi == y) && !(lo == y && hi == x) {
				t.Fatalf("endpoints (%d,%d) for edge between %d,%d", lo, hi, x, y)
			}
		}
	})
}

// FuzzLoopErase checks LoopErase against the hop-level reference
// (Expand → RemoveCycles → Compress) on raw run lists over open and
// torus meshes of 1–4 dimensions and sides 1–6, and checks that it
// panics exactly when ValidateSeg rejects the walk (a run leaving an
// open side). sides gives one side per dimension; each run is two
// bytes — a dimension and a signed length of up to three times the
// side, never zero. With fold set, open-mesh runs are shortened to
// stay on the mesh, so long valid walks stay reachable.
func FuzzLoopErase(f *testing.F) {
	f.Add(true, []byte{5}, uint32(4), []byte{0, 3, 0, 0x80 | 5}, false)                      // seam crossing, then a retrace across it
	f.Add(true, []byte{5, 2}, uint32(1), []byte{0, 13, 1, 1}, false)                         // a run lapping the ring twice
	f.Add(false, []byte{5, 5}, uint32(8), []byte{0, 4, 0, 0x80 | 3, 1, 2}, true)             // collinear retrace
	f.Add(false, []byte{5, 5}, uint32(14), []byte{0, 2, 1, 2, 0, 0x82, 1, 0x82, 0, 3}, true) // cycle through the start
	f.Add(false, []byte{3, 1, 4}, uint32(0), []byte{2, 5}, false)                            // a run leaving an open side
	f.Fuzz(func(t *testing.T, torus bool, sides []byte, start uint32, runs []byte, fold bool) {
		if len(sides) == 0 {
			return
		}
		if len(sides) > 4 {
			sides = sides[:4]
		}
		dims := make([]int, len(sides))
		for i, b := range sides {
			dims[i] = 1 + int(b)%6
		}
		m := MustNew(dims...)
		if torus {
			m = mustTorus(dims...)
		}
		if len(runs) > 64 {
			runs = runs[:64]
		}
		s0 := NodeID(int(start % uint32(m.Size())))
		c := m.CoordOf(s0)
		var segs []Seg
		for i := 0; i+1 < len(runs); i += 2 {
			dim := int(runs[i]) % m.Dim()
			side := m.Side(dim)
			run := 1 + int(runs[i+1]&0x7f)%(3*side)
			if runs[i+1]&0x80 != 0 {
				run = -run
			}
			if fold && !m.WrapDim(dim) {
				run = max(-c[dim], min(run, side-1-c[dim]))
				if run == 0 {
					continue
				}
			}
			segs = append(segs, Seg{Dim: int32(dim), Run: int32(run)})
			c[dim] = ((c[dim]+run)%side + side) % side
		}
		_, err := m.SegWalkEnd(SegPath{Start: s0, Segs: segs})
		valid := err == nil
		var eb EraseBuf
		var got []Seg
		var n int
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			got, n = m.LoopErase(s0, segs, &eb, nil)
			return false
		}()
		if panicked != !valid {
			t.Fatalf("%v: start %d runs %+v: panicked=%v, ValidateSeg ok=%v", m, s0, segs, panicked, valid)
		}
		if !valid {
			return
		}
		want := eraseReference(m, s0, segs)
		if !segsEq(got, want) {
			t.Fatalf("%v: start %d runs %+v: got %+v, want %+v", m, s0, segs, got, want)
		}
		if wl := (SegPath{Start: s0, Segs: want}).Len(); n != wl {
			t.Fatalf("%v: start %d runs %+v: length %d, want %d", m, s0, segs, n, wl)
		}
	})
}

package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
)

// routedSegs builds a random-walk path set (cycles, backtracks and
// wrap-arounds included) in both representations for agreement tests.
// Selector-level seg/hop agreement lives in the core package; here the
// walks only need to cover the edge-walk code paths.
func routedSegs(t *testing.T, m *mesh.Mesh, seed int64) ([]mesh.Pair, []mesh.Path, []mesh.SegPath) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pairs []mesh.Pair
	var paths []mesh.Path
	var sps []mesh.SegPath
	for i := 0; i < 64; i++ {
		cur := mesh.NodeID(rng.Intn(m.Size()))
		p := mesh.Path{cur}
		var nb []mesh.NodeID
		for k := rng.Intn(3 * m.MaxSide()); k > 0; k-- {
			nb = m.Neighbors(cur, nb[:0])
			cur = nb[rng.Intn(len(nb))]
			p = append(p, cur)
		}
		pairs = append(pairs, mesh.Pair{S: p.Source(), T: p.Dest()})
		paths = append(paths, p)
		sps = append(sps, p.Compress(m))
	}
	return pairs, paths, sps
}

func TestEdgeLoadsSegMatchesHop(t *testing.T) {
	for _, m := range []*mesh.Mesh{mesh.MustSquare(2, 16), mesh.MustSquareTorus(2, 16)} {
		_, paths, sps := routedSegs(t, m, 3)
		hop := EdgeLoads(m, paths)
		seg := EdgeLoadsSeg(m, sps)
		if len(hop) != len(seg) {
			t.Fatalf("%v: load vector lengths differ", m)
		}
		for e := range hop {
			if hop[e] != seg[e] {
				t.Fatalf("%v: edge %d: hop %d != seg %d", m, e, hop[e], seg[e])
			}
		}
		if CongestionSeg(m, sps) != Congestion(m, paths) {
			t.Fatalf("%v: congestion differs", m)
		}
		if DilationSeg(sps) != Dilation(paths) {
			t.Fatalf("%v: dilation differs", m)
		}
	}
}

func TestStretchStatsSegMatchesHop(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	_, paths, sps := routedSegs(t, m, 5)
	hMax, hMean := StretchStats(m, paths)
	sMax, sMean := StretchStatsSeg(m, sps)
	if hMax != sMax || hMean != sMean {
		t.Fatalf("stretch (%v,%v) != (%v,%v)", sMax, sMean, hMax, hMean)
	}
}

func TestEvaluateSegMatchesEvaluate(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	dc, err := decomp.New(m, decomp.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	pairs, paths, sps := routedSegs(t, m, 7)
	hop := Evaluate(dc, pairs, paths)
	seg := EvaluateSeg(dc, pairs, sps)
	if hop != seg {
		t.Fatalf("EvaluateSeg %+v != Evaluate %+v", seg, hop)
	}
}

func TestAddSegPathMatchesAddPath(t *testing.T) {
	for _, m := range []*mesh.Mesh{mesh.MustSquare(2, 8), mesh.MustSquareTorus(2, 8)} {
		_, paths, sps := routedSegs(t, m, 11)
		lh := NewLiveLoads(m, 4)
		ls := NewLiveLoads(m, 4)
		for i, p := range paths {
			lh.AddPath(m, uint64(i), p)
		}
		for i, sp := range sps {
			ls.AddSegPath(m, uint64(i), sp)
		}
		hop, seg := lh.Snapshot(), ls.Snapshot()
		for e := range hop {
			if hop[e] != seg[e] {
				t.Fatalf("%v: edge %d: hop %d != seg %d", m, e, hop[e], seg[e])
			}
		}
		if lh.Total() != ls.Total() {
			t.Fatalf("%v: totals differ: %d vs %d", m, lh.Total(), ls.Total())
		}
	}
}

func TestAddRunChainsAndCounts(t *testing.T) {
	m := mesh.MustSquareTorus(2, 5)
	l := NewLiveLoads(m, 2)
	start := m.Node(mesh.Coord{4, 2})
	end := l.AddRun(m, 1, start, 0, 3) // wraps 4 -> 0 -> 1 -> 2
	if want := m.Node(mesh.Coord{2, 2}); end != want {
		t.Fatalf("AddRun end = %d, want %d", end, want)
	}
	if got := l.Total(); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
	// The same edges RunEdges reports must carry the load.
	m.RunEdges(start, 0, 3, func(e mesh.EdgeID) {
		if l.Snapshot()[e] != 1 {
			t.Fatalf("edge %d load = %d", e, l.Snapshot()[e])
		}
	})
	if end := l.AddRun(m, 1, start, 1, 0); end != start {
		t.Fatalf("empty run moved to %d", end)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

// TestAddRunDegenerateDims pins the AddRun contract on the inputs no
// canonical SegPath contains. A nonzero run on a side-1 dimension has
// no edge to book — even on a torus the dimension does not wrap
// (mesh.WrapDim) — so it must panic as leaving the mesh, not spin on a
// self-edge.
func TestAddRunDegenerateDims(t *testing.T) {
	torus, err := mesh.NewTorus(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*mesh.Mesh{
		mesh.MustNew(1, 6),
		torus,
	} {
		l := NewLiveLoads(m, 1)
		start := m.Node(mesh.Coord{0, 3})
		for _, run := range []int{1, -1, 5} {
			mustPanic(t, "metrics: run leaves the mesh", func() {
				l.AddRun(m, 0, start, 0, run)
			})
		}
		if got := l.Total(); got != 0 {
			t.Fatalf("%v: degenerate runs booked %d edges, want 0", m, got)
		}
		// The healthy dimension of the same mesh still works.
		if end := l.AddRun(m, 0, start, 1, 2); end != m.Node(mesh.Coord{0, 5}) {
			t.Fatalf("%v: side-6 run ended at %d", m, end)
		}
	}
}

// TestAddRunFullWrapPanics pins the |run| ≥ side contract on wrapping
// dimensions: a lap is non-canonical (SegWalkEnd normalizes it away)
// and pre-fix AddRun silently walked it, multi-counting every ring
// edge. side−1 steps — the longest canonical wrapped run — must still
// count each ring edge exactly once.
func TestAddRunFullWrapPanics(t *testing.T) {
	m := mesh.MustSquareTorus(2, 5)
	l := NewLiveLoads(m, 2)
	start := m.Node(mesh.Coord{2, 1})
	for _, run := range []int{5, -5, 6, 12} {
		mustPanic(t, "metrics: run laps the ring", func() {
			l.AddRun(m, 0, start, 0, run)
		})
	}
	if got := l.Total(); got != 0 {
		t.Fatalf("lap runs booked %d edges, want 0", got)
	}
	if end := l.AddRun(m, 0, start, 0, 4); end != m.Node(mesh.Coord{1, 1}) {
		t.Fatalf("side-1-step run ended at %d", end)
	}
	snap := l.Snapshot()
	booked := 0
	for _, v := range snap {
		if v > 1 {
			t.Fatalf("ring edge booked %d times, want ≤ 1", v)
		}
		if v == 1 {
			booked++
		}
	}
	if booked != 4 {
		t.Fatalf("booked %d distinct edges, want 4", booked)
	}
}

// TestAddSegPathConcurrent exercises the sharded counters from many
// goroutines (meaningful under -race).
func TestAddSegPathConcurrent(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	_, _, sps := routedSegs(t, m, 13)
	l := NewLiveLoads(m, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, sp := range sps {
				l.AddSegPath(m, uint64(w*len(sps)+i), sp)
			}
		}(w)
	}
	wg.Wait()
	want := int64(0)
	for _, sp := range sps {
		want += int64(sp.Len())
	}
	if got := l.Total(); got != 4*want {
		t.Fatalf("total = %d, want %d", got, 4*want)
	}
}

// TestSegPathMaxLoadLimit: a limited score below its limit is the
// exact score, and one at or above it lies between the limit and the
// exact score; with no limit it is the per-edge maximum.
func TestSegPathMaxLoadLimit(t *testing.T) {
	for _, m := range []*mesh.Mesh{mesh.MustSquare(2, 16), mesh.MustSquareTorus(2, 16), mesh.MustSquareTorus(3, 6)} {
		sps := randomSegPaths(m, 64, 5)
		loads := EdgeLoadsSeg(m, sps)
		for i, sp := range sps {
			var want int64
			m.SegPathEdges(sp, func(e mesh.EdgeID) { want = max(want, loads[e]) })
			full := SegPathMaxLoad(m, loads, sp)
			if full != want {
				t.Fatalf("%v path %d: score %d, per-edge maximum %d", m, i, full, want)
			}
			for _, limit := range []int64{0, 1, full - 1, full, full + 1, math.MaxInt64} {
				got := SegPathMaxLoadLimit(m, loads, sp, limit)
				if got < limit && got != full || got >= limit && got > full {
					t.Fatalf("%v path %d: limit %d scores %d, exact score %d", m, i, limit, got, full)
				}
			}
		}
	}
}

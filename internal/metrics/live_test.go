package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"obliviousmesh/internal/mesh"
)

func TestLiveLoadsShardRounding(t *testing.T) {
	m := mesh.MustSquare(2, 4)
	for _, c := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}} {
		l := NewLiveLoads(m, c.in)
		if l.Shards() != c.want {
			t.Errorf("shards(%d) = %d, want %d", c.in, l.Shards(), c.want)
		}
	}
	if l := NewLiveLoads(m, 0); l.Shards() < 1 {
		t.Errorf("default shards = %d", l.Shards())
	}
	if l := NewLiveLoads(m, 4); l.EdgeSpace() != m.EdgeSpace() {
		t.Errorf("EdgeSpace = %d, want %d", l.EdgeSpace(), m.EdgeSpace())
	}
}

func TestLiveLoadsMatchesBatch(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	var paths []mesh.Path
	for y := 0; y < 8; y++ {
		paths = append(paths, m.StaircasePath(
			m.Node(mesh.Coord{0, y}), m.Node(mesh.Coord{7, (y + 3) % 8}), []int{0, 1}))
	}
	l := NewLiveLoads(m, 4)
	for i, p := range paths {
		l.AddPath(m, uint64(i), p)
	}
	want := EdgeLoads(m, paths)
	got := l.Snapshot()
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("edge %d: live %d, batch %d", e, got[e], want[e])
		}
	}
	if l.Max() != MaxLoad(want) {
		t.Errorf("Max = %d, want %d", l.Max(), MaxLoad(want))
	}
	var total int64
	for _, p := range paths {
		total += int64(p.Len())
	}
	if l.Total() != total {
		t.Errorf("Total = %d, want %d", l.Total(), total)
	}
}

// randomSegPaths returns n real two-leg run-length paths: a staircase
// to a random waypoint, then one to the destination, in random
// dimension orders, redrawn in the rare case that the join merges two
// runs into one that laps a ring. On a torus the staircases take the
// shorter ring direction, so many runs cross the seam.
func randomSegPaths(m *mesh.Mesh, n int, seed int64) []mesh.SegPath {
	rng := rand.New(rand.NewSource(seed))
	sps := make([]mesh.SegPath, n)
	for i := 0; i < n; {
		s, w, t := mesh.NodeID(rng.Intn(m.Size())), mesh.NodeID(rng.Intn(m.Size())), mesh.NodeID(rng.Intn(m.Size()))
		segs, _ := m.AppendStaircaseSegs(nil, m.CoordOf(s), m.CoordOf(w), rng.Perm(m.Dim()))
		segs, _ = m.AppendStaircaseSegs(segs, m.CoordOf(w), m.CoordOf(t), rng.Perm(m.Dim()))
		laps := false
		for _, sg := range segs {
			d, r := int(sg.Dim), int(sg.Run)
			laps = laps || m.WrapDim(d) && (r >= m.Side(d) || -r >= m.Side(d))
		}
		if !laps {
			sps[i] = mesh.SegPath{Start: s, Segs: segs}
			i++
		}
	}
	return sps
}

// TestLiveLoadsConcurrent hammers one hot edge plus a spread of cold
// edges from many goroutines, then books real run-length paths from
// several writers while a reader snapshots in a loop. Run under -race
// this also proves the tracker is data-race-free.
func TestLiveLoadsConcurrent(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	l := NewLiveLoads(m, 8)
	hot, ok := m.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("nodes 0 and 1 not adjacent")
	}
	var edges []mesh.EdgeID
	m.Edges(func(e mesh.EdgeID) { edges = append(edges, e) })

	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs := l.Observer(uint64(g))
			for i := 0; i < perG; i++ {
				l.Add(uint64(g), hot)
				obs(edges[(g*perG+i)%len(edges)])
			}
		}(g)
	}
	wg.Wait()

	snap := l.Snapshot()
	var wantHot int64 = goroutines * perG
	// The hot edge also collects its share of the round-robin adds.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if edges[(g*perG+i)%len(edges)] == hot {
				wantHot++
			}
		}
	}
	if snap[hot] != wantHot {
		t.Errorf("hot edge load = %d, want %d", snap[hot], wantHot)
	}
	if got := l.Total(); got != 2*goroutines*perG {
		t.Errorf("Total = %d, want %d", got, 2*goroutines*perG)
	}

	// SnapshotInto must reuse the buffer and agree with Snapshot.
	buf := make([]int64, m.EdgeSpace())
	into := l.SnapshotInto(buf)
	for e := range snap {
		if snap[e] != into[e] {
			t.Fatalf("SnapshotInto mismatch at edge %d", e)
		}
	}

	l.Reset()
	if l.Total() != 0 || l.Max() != 0 {
		t.Errorf("after Reset: Total=%d Max=%d", l.Total(), l.Max())
	}

	// The snapshot contract under concurrent run bookings: every
	// snapshot taken while writers run is per-edge non-decreasing,
	// never negative and never above the final recount (no phantom
	// from a half-written run), and the quiescent one is exact.
	for _, m := range []*mesh.Mesh{mesh.MustSquare(2, 16), mesh.MustSquareTorus(2, 16), mesh.MustSquareTorus(3, 5)} {
		const writers, perW = 4, 1500
		sps := randomSegPaths(m, writers*perW, 7)
		want := EdgeLoadsSeg(m, sps)
		l := NewLiveLoads(m, 2)
		var done sync.WaitGroup
		for w := 0; w < writers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				for i := w * perW; i < (w+1)*perW; i++ {
					l.AddSegPath(m, uint64(i), sps[i])
				}
			}(w)
		}
		stop := make(chan struct{})
		go func() { done.Wait(); close(stop) }()
		prev := make([]int64, m.EdgeSpace())
		cur := make([]int64, m.EdgeSpace())
		snaps := 0
		for running := true; running; snaps++ {
			select {
			case <-stop:
				running = false
			default:
			}
			l.SnapshotInto(cur)
			for e := range cur {
				if cur[e] < prev[e] || cur[e] < 0 || cur[e] > want[e] {
					t.Fatalf("%v snapshot %d edge %s: load %d (previous %d, final %d)",
						m, snaps, m.EdgeString(mesh.EdgeID(e)), cur[e], prev[e], want[e])
				}
			}
			prev, cur = cur, prev
		}
		for e, v := range l.Snapshot() {
			if v != want[e] {
				t.Fatalf("%v quiescent edge %s: live %d, recount %d", m, m.EdgeString(mesh.EdgeID(e)), v, want[e])
			}
		}
		if got, wantT := l.Total(), SumLoads(want); got != wantT {
			t.Errorf("%v Total = %d, want %d", m, got, wantT)
		}
		t.Logf("%v: %d snapshots against %d concurrent writers", m, snaps, writers)
	}
}

// TestLiveLoadsResetConcurrent resets while writers book: every run
// either survives whole or goes whole, so the lines stay balanced,
// snapshots stay within [0, final recount] and terminate, and a
// quiescent Reset zeroes the tracker.
func TestLiveLoadsResetConcurrent(t *testing.T) {
	m := mesh.MustSquareTorus(2, 12)
	sps := randomSegPaths(m, 4000, 3)
	want := EdgeLoadsSeg(m, sps)
	l := NewLiveLoads(m, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sps); i += 2 {
				l.AddSegPath(m, uint64(i), sps[i])
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		l.Reset()
		for e, v := range l.Snapshot() {
			if v < 0 || v > want[e] {
				t.Fatalf("reset %d edge %s: load %d outside [0, %d]", i, m.EdgeString(mesh.EdgeID(e)), v, want[e])
			}
		}
	}
	wg.Wait()
	l.Reset()
	if tot := l.Total(); tot != 0 {
		t.Fatalf("quiescent Reset left Total %d", tot)
	}
	l.AddSegPath(m, 0, sps[0])
	if got, w := l.Total(), int64(sps[0].Len()); got != w {
		t.Fatalf("booking after Reset: Total %d, want %d", got, w)
	}
}

// TestLiveLoadsSizeBinds: a tracker built from the edge-space size
// alone binds to the mesh of its first path booking, agrees with one
// built from the mesh, and refuses a mesh of another shape.
func TestLiveLoadsSizeBinds(t *testing.T) {
	m := mesh.MustSquareTorus(2, 9)
	sps := randomSegPaths(m, 200, 5)
	sized, built := NewLiveLoadsSize(m.EdgeSpace(), 2), NewLiveLoads(m, 2)
	if got := sized.Total(); got != 0 {
		t.Fatalf("unbound Total = %d", got)
	}
	sized.Reset()
	for i, sp := range sps {
		sized.AddSegPath(m, uint64(i), sp)
		built.AddPath(m, uint64(i), sp.Expand(m))
	}
	a, b := sized.Snapshot(), built.Snapshot()
	for e := range a {
		if a[e] != b[e] {
			t.Fatalf("edge %s: size-built %d, mesh-built %d", m.EdgeString(mesh.EdgeID(e)), a[e], b[e])
		}
	}
	// Same edge space, other shape: the open 9x9 mesh.
	mustPanicPrefix(t, "metrics: LiveLoads bound to", func() {
		sized.AddPath(mesh.MustSquare(2, 9), 0, mesh.Path{0, 1})
	})
	mustPanicPrefix(t, "metrics: LiveLoads has no mesh yet", func() {
		NewLiveLoadsSize(m.EdgeSpace(), 1).Add(0, 0)
	})
	mustPanicPrefix(t, "metrics: LiveLoads of edge space", func() {
		NewLiveLoadsSize(7, 1).AddPath(m, 0, mesh.Path{0, 1})
	})
}

func mustPanicPrefix(t *testing.T, prefix string, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, prefix) {
			t.Fatalf("panic %q, want prefix %q", msg, prefix)
		}
	}()
	fn()
}

// TestSnapshotIntoOverwrites: SnapshotInto writes every cell of its
// buffer, so a reused buffer full of another snapshot's loads (or of
// garbage) yields exactly the loads a fresh vector does, bound or not.
func TestSnapshotIntoOverwrites(t *testing.T) {
	for _, m := range []*mesh.Mesh{mesh.MustSquare(2, 16), mesh.MustSquareTorus(2, 16), mesh.MustSquareTorus(3, 6)} {
		l := NewLiveLoads(m, 4)
		dirty := make([]int64, m.EdgeSpace())
		for pass := 0; pass < 2; pass++ {
			for i := range dirty {
				dirty[i] = int64(i)*7919 - 1
			}
			got, want := l.SnapshotInto(dirty), l.Snapshot()
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("%v pass %d: edge %d reads %d, fresh snapshot %d", m, pass, e, got[e], want[e])
				}
			}
			for i, sp := range randomSegPaths(m, 64, 9) {
				l.AddSegPath(m, uint64(i), sp)
			}
		}
	}
}

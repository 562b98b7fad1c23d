package metrics

import (
	"testing"

	"obliviousmesh/internal/mesh"
)

// FuzzLiveLoadsRuns drives the run-length LiveLoads booking with
// random runs on small open meshes and tori (d ∈ {1,2,3}, sides 1–6,
// so side-1 and side-2 dimensions that never wrap are common). Every
// run must panic exactly when MaxLoadRun panics — off the open mesh or
// lapping a ring — with the same message and nothing booked; every
// other run must end where MaxLoadRun ends. The accepted runs, booked
// run by run (AddRun), as one SegPath (AddSegPath) and as its hop
// expansion (AddPath), must all snapshot to exactly the per-hop
// recount AccumulateEdgeLoadsSeg.
func FuzzLiveLoadsRuns(f *testing.F) {
	// The seed corpus under testdata/fuzz holds seam-crossing runs on
	// 2-D and 3-D tori, an open-mesh run ending exactly at coordinate
	// side-1, ring laps, and side-1 and side-2 dimensions.
	f.Fuzz(func(t *testing.T, torus bool, d, s0, s1, s2 uint8, start uint16, runs []byte) {
		sides := []int{1 + int(s0)%6, 1 + int(s1)%6, 1 + int(s2)%6}[:1+int(d)%3]
		build := mesh.New
		if torus {
			build = mesh.NewTorus
		}
		m, err := build(sides...)
		if err != nil {
			t.Skip(err)
		}
		byRun := NewLiveLoads(m, 2)
		zero := make([]int64, m.EdgeSpace())
		sp := mesh.SegPath{Start: mesh.NodeID(int(start) % m.Size())}
		u := sp.Start
		for i := 0; i+1 < len(runs) && i < 64; i += 2 {
			dim := int(runs[i]) % m.Dim()
			run := int(int8(runs[i+1])) % (2*m.Side(dim) + 2)
			before := byRun.Snapshot()
			want, wantEnd := catchPanic(func() mesh.NodeID { _, e := MaxLoadRun(m, zero, u, dim, run); return e })
			got, end := catchPanic(func() mesh.NodeID { return byRun.AddRun(m, uint64(i), u, dim, run) })
			if got != want {
				t.Fatalf("%v run %+d along %d from %v: AddRun panic %q, MaxLoadRun panic %q", m, run, dim, m.CoordOf(u), got, want)
			}
			if got != "" {
				for e, v := range byRun.Snapshot() {
					if v != before[e] {
						t.Fatalf("%v rejected run %+d along %d from %v booked edge %s", m, run, dim, m.CoordOf(u), m.EdgeString(mesh.EdgeID(e)))
					}
				}
				continue
			}
			if end != wantEnd {
				t.Fatalf("%v run %+d along %d from %v: AddRun ends at %v, MaxLoadRun at %v", m, run, dim, m.CoordOf(u), m.CoordOf(end), m.CoordOf(wantEnd))
			}
			if run != 0 {
				sp.Segs = append(sp.Segs, mesh.Seg{Dim: int32(dim), Run: int32(run)})
			}
			u = end
		}
		want := make([]int64, m.EdgeSpace())
		AccumulateEdgeLoadsSeg(m, []mesh.SegPath{sp}, want)
		bySeg, byHop := NewLiveLoadsSize(m.EdgeSpace(), 2), NewLiveLoads(m, 1)
		bySeg.AddSegPath(m, 1, sp)
		byHop.AddPath(m, 3, sp.Expand(m))
		for name, l := range map[string]*LiveLoads{"AddRun": byRun, "AddSegPath": bySeg, "AddPath": byHop} {
			got := l.Snapshot()
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("%v %s: edge %s load %d, recount %d (path %v)", m, name, m.EdgeString(mesh.EdgeID(e)), got[e], want[e], sp)
				}
			}
			if tot := l.Total(); tot != int64(sp.Len()) {
				t.Fatalf("%v %s: Total %d, want %d", m, name, tot, sp.Len())
			}
		}
	})
}

// catchPanic runs fn and returns its panic message ("" when it
// returns normally) and its result.
func catchPanic(fn func() mesh.NodeID) (msg string, end mesh.NodeID) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	return "", fn()
}

package obliviousmesh_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	obliviousmesh "obliviousmesh"
)

func newRouter(t testing.TB, d, side int) (*obliviousmesh.Mesh, *obliviousmesh.Router) {
	t.Helper()
	m, err := obliviousmesh.NewMesh(d, side)
	if err != nil {
		t.Fatal(err)
	}
	r, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

// A serial Router.Select with an Edge hook must report exactly the
// edges of the paths it returns — packet ids in range, per-packet
// counts matching path lengths — and the observer must not perturb
// selection.
func TestSelectAllObserved(t *testing.T) {
	m, r := newRouter(t, 2, 16)
	prob := obliviousmesh.RandomPermutation(m, 3)
	observed := func(pairs []obliviousmesh.Pair, observe obliviousmesh.EdgeObserver) []obliviousmesh.Path {
		paths := make([]obliviousmesh.Path, len(pairs))
		r.Select(obliviousmesh.SelectRequest{Pairs: pairs, Workers: 1, Paths: paths,
			Hooks: obliviousmesh.SelectHooks{Edge: observe}})
		return paths
	}

	perPacket := make([]int, len(prob.Pairs))
	paths := observed(prob.Pairs, func(pkt int, e obliviousmesh.EdgeID) {
		if pkt < 0 || pkt >= len(prob.Pairs) {
			t.Fatalf("observer saw packet id %d of %d", pkt, len(prob.Pairs))
		}
		if int(e) < 0 || int(e) >= m.EdgeSpace() {
			t.Fatalf("observer saw edge id %d of %d", e, m.EdgeSpace())
		}
		perPacket[pkt]++
	})
	if len(paths) != len(prob.Pairs) {
		t.Fatalf("%d paths for %d pairs", len(paths), len(prob.Pairs))
	}
	for i, p := range paths {
		if perPacket[i] != p.Len() {
			t.Fatalf("packet %d: observed %d edges, path has %d", i, perPacket[i], p.Len())
		}
	}

	// Edge paths of the error-ish inputs: nil observer and empty batch.
	unobserved := observed(prob.Pairs, nil)
	for i := range unobserved {
		if len(unobserved[i]) != len(paths[i]) {
			t.Fatalf("nil observer changed selection of packet %d", i)
		}
		for j := range unobserved[i] {
			if unobserved[i][j] != paths[i][j] {
				t.Fatalf("nil observer changed selection of packet %d", i)
			}
		}
	}
	called := false
	if got := observed(nil, func(int, obliviousmesh.EdgeID) { called = true }); len(got) != 0 || called {
		t.Fatalf("empty batch: %d paths, observer called=%v", len(got), called)
	}
}

// Run-length selection through the facade must be indistinguishable
// from hop selection: same paths after expansion, same live loads
// booked through the hooks, same report, and a clean checker pass.
func TestSegFacadeMatchesHop(t *testing.T) {
	m, r := newRouter(t, 2, 16)
	prob := obliviousmesh.RandomPermutation(m, 5)

	liveHop := obliviousmesh.NewLiveLoads(m, 0)
	liveSeg := obliviousmesh.NewLiveLoads(m, 0)
	paths := make([]obliviousmesh.Path, len(prob.Pairs))
	r.Select(obliviousmesh.SelectRequest{Pairs: prob.Pairs, Paths: paths, Hooks: obliviousmesh.SelectHooks{
		Path: func(pkt int, _ obliviousmesh.Pair, p obliviousmesh.Path, _ obliviousmesh.RouterStats) {
			liveHop.AddPath(m, uint64(pkt), p)
		},
	}})
	sps := make([]obliviousmesh.SegPath, len(prob.Pairs))
	r.Select(obliviousmesh.SelectRequest{Pairs: prob.Pairs, Segs: sps, Hooks: obliviousmesh.SelectHooks{
		Seg: func(pkt int, _ obliviousmesh.Pair, sp obliviousmesh.SegPath, _ obliviousmesh.RouterStats) {
			liveSeg.AddSegPath(m, uint64(pkt), sp)
		},
	}})

	for i, sp := range sps {
		p := sp.Expand(m)
		if len(p) != len(paths[i]) {
			t.Fatalf("packet %d: seg expansion %d nodes, hop path %d", i, len(p), len(paths[i]))
		}
		for j := range p {
			if p[j] != paths[i][j] {
				t.Fatalf("packet %d: expansion differs at %d", i, j)
			}
		}
	}
	hop, seg := liveHop.Snapshot(), liveSeg.Snapshot()
	for e := range hop {
		if hop[e] != seg[e] {
			t.Fatalf("edge %d: hop load %d, seg load %d", e, hop[e], seg[e])
		}
	}

	hopRep, err := obliviousmesh.Evaluate(m, prob.Pairs, paths)
	if err != nil {
		t.Fatal(err)
	}
	segRep, err := obliviousmesh.EvaluateSeg(m, prob.Pairs, sps)
	if err != nil {
		t.Fatal(err)
	}
	if hopRep != segRep {
		t.Fatalf("EvaluateSeg %+v != Evaluate %+v", segRep, hopRep)
	}

	ck := obliviousmesh.NewChecker(r)
	checked := make([]obliviousmesh.SegPath, len(prob.Pairs))
	r.Select(obliviousmesh.SelectRequest{Pairs: prob.Pairs, Segs: checked,
		Hooks: obliviousmesh.SelectHooks{Seg: ck.SegPathObserver()}})
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
	if ck.Checked() != uint64(len(prob.Pairs)) {
		t.Fatalf("checker saw %d of %d packets", ck.Checked(), len(prob.Pairs))
	}
	for i := range checked {
		if checked[i].Start != sps[i].Start || len(checked[i].Segs) != len(sps[i].Segs) {
			t.Fatalf("checked selection differs from tracked selection at %d", i)
		}
	}
}

// Issued vs Packets under concurrent Route: Packets must never read
// ahead of Issued, and from inside the per-route observer — which runs
// before the route is counted complete — the route's own stream must
// still be in flight (Issued > stream ≥ Packets-consistent view).
func TestSessionIssuedVsPacketsConcurrent(t *testing.T) {
	m, r := newRouter(t, 2, 16)
	s := obliviousmesh.NewSession(r)

	var observed atomic.Uint64
	s.Observe(func(stream uint64, src, dst obliviousmesh.NodeID, p obliviousmesh.Path) {
		observed.Add(1)
		issued, done := s.Issued(), s.Packets()
		if stream >= issued {
			t.Errorf("observer: stream %d not yet issued (Issued=%d)", stream, issued)
		}
		// This route is not complete while its observer runs, so at
		// least one issued stream is unfinished.
		if done >= issued {
			t.Errorf("observer: Packets=%d not behind Issued=%d mid-route", done, issued)
		}
	})

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader probing the invariant
		for {
			select {
			case <-stop:
				return
			default:
				if done, issued := s.Packets(), s.Issued(); done > issued {
					t.Errorf("reader: Packets=%d ahead of Issued=%d", done, issued)
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				src := obliviousmesh.NodeID((g*perG + i) % m.Size())
				dst := obliviousmesh.NodeID(m.Size() - 1 - int(src))
				s.Route(src, dst)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if got := s.Issued(); got != goroutines*perG {
		t.Fatalf("Issued = %d, want %d", got, goroutines*perG)
	}
	if got := s.Packets(); got != goroutines*perG {
		t.Fatalf("Packets = %d, want %d", got, goroutines*perG)
	}
	if got := observed.Load(); got != goroutines*perG {
		t.Fatalf("observer saw %d routes, want %d", got, goroutines*perG)
	}
}

// A checker hooked into Router.Select: identical paths to SelectAll, a
// clean checker on healthy code, and violation reporting through the
// facade types.
func TestSelectAllChecked(t *testing.T) {
	m, r := newRouter(t, 2, 16)
	prob := obliviousmesh.RandomPermutation(m, 5)

	ck := obliviousmesh.NewChecker(r)
	paths := make([]obliviousmesh.Path, len(prob.Pairs))
	r.Select(obliviousmesh.SelectRequest{Pairs: prob.Pairs, Paths: paths,
		Hooks: obliviousmesh.SelectHooks{Path: ck.PathObserver()}})
	if err := ck.Err(); err != nil {
		t.Fatalf("violations on healthy selection: %v", err)
	}
	if got := ck.Checked(); got != uint64(len(prob.Pairs)) {
		t.Fatalf("checked %d packets, want %d", got, len(prob.Pairs))
	}
	plain := obliviousmesh.SelectAll(obliviousmesh.Named("H", r), prob.Pairs)
	for i := range paths {
		if len(paths[i]) != len(plain[i]) {
			t.Fatalf("checked selection diverged at packet %d", i)
		}
	}

	// A doctored delivery surfaces as a facade Violation with the
	// paper reference and replay witness.
	ck.Reset()
	s, d := prob.Pairs[0].S, prob.Pairs[0].T
	vs := ck.CheckPath(s, d, 0, r.Path(s, d, 1))
	if len(vs) == 0 {
		t.Fatal("doctored delivery not flagged")
	}
	var v obliviousmesh.Violation = vs[0]
	if !strings.Contains(v.String(), "seed 11") || !strings.Contains(v.Replay(m), "-check") {
		t.Fatalf("violation lacks replay witness: %s / %s", v, v.Replay(m))
	}
}

// A session with a checker observer attached must stay clean under
// concurrent routing (exercised under -race by make verify).
func TestSessionCheckedConcurrent(t *testing.T) {
	m, r := newRouter(t, 2, 16)
	ck := obliviousmesh.NewChecker(r)
	s := obliviousmesh.NewSession(r)
	s.Observe(ck.SessionObserver())

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				s.Route(obliviousmesh.NodeID((g*64+i)%m.Size()), obliviousmesh.NodeID(i%m.Size()))
			}
		}(g)
	}
	wg.Wait()
	if err := ck.Err(); err != nil {
		t.Fatalf("violations from concurrent session: %v", err)
	}
	if got := ck.Checked(); got != 4*32 {
		t.Fatalf("checked %d routes, want %d", got, 4*32)
	}
}

package core

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/workload"
)

// segPathEqual compares two run-length paths structurally.
func segPathEqual(a, b mesh.SegPath) bool {
	return segPathsEqual([]mesh.SegPath{a}, []mesh.SegPath{b})
}

// fakeSnapshot builds a deterministic, deliberately non-uniform load
// vector for a mesh: every edge gets a different pseudo-random load,
// so any engine that consults the snapshot when it should not (k = 1)
// or mis-indexes an edge is caught immediately.
func fakeSnapshot(m *mesh.Mesh, seed uint64) []int64 {
	snap := make([]int64, m.EdgeSpace())
	x := seed | 1
	for i := range snap {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		snap[i] = int64(x % 97)
	}
	return snap
}

// tieSnapshot builds a load vector of zeros and ones (about one edge
// in eight loaded), so most candidates of a packet tie on their score
// and the early-abandon rule is exercised at equality.
func tieSnapshot(m *mesh.Mesh, seed uint64) []int64 {
	snap := fakeSnapshot(m, seed)
	for i, v := range snap {
		snap[i] = int64(min(v%8, 1)) ^ 1
	}
	return snap
}

// TestKSampleGoldenK1: at k = 1 the k-sample engine must be
// byte-identical to the plain segment engine — identical paths and
// identical Aggregates — across both chain backends (table, none),
// variant, torus/mesh, seed, and serial/parallel engine, even
// against a hostile non-uniform snapshot (k = 1 never scores). This is
// the golden wall that pins "k=1 ≡ algorithm H".
func TestKSampleGoldenK1(t *testing.T) {
	for _, c := range cacheEquivCases() {
		for _, seed := range []uint64{1, 42, 7777} {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				opt := c.opt
				opt.Seed = seed
				opt.KSample = 1
				selT, selN := tablePair(c.m, opt)

				prob := workload.RandomPermutation(c.m, seed+3)
				snap := fakeSnapshot(c.m, seed)
				want, wantAgg := selN.SelectAllSeg(prob.Pairs)

				for _, sel := range []*Selector{selT, selN} {
					src := sel.Options().ChainSource
					got := make([]mesh.SegPath, len(prob.Pairs))
					agg, ks := sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: got})
					if !segPathsEqual(got, want) {
						t.Fatalf("%v: k=1 serial paths differ from SelectAllSeg", src)
					}
					if agg != wantAgg {
						t.Fatalf("%v: k=1 aggregate %+v != plain %+v", src, agg, wantAgg)
					}
					if ks.Candidates != int64(len(prob.Pairs)) || ks.RedrawWins != 0 ||
						ks.CommitScoreSum != 0 || ks.FirstScoreSum != 0 || ks.MaxCommitScore != 0 {
						t.Fatalf("%v: k=1 sampling stats not inert: %+v", src, ks)
					}

					sps := make([]mesh.SegPath, len(prob.Pairs))
					pagg, pks := sel.Select(Request{Pairs: prob.Pairs, Workers: 4, Snapshot: snap, Segs: sps})
					if !segPathsEqual(sps, want) {
						t.Fatalf("%v: k=1 parallel paths differ from SelectAllSeg", src)
					}
					if pagg != wantAgg || pks != ks {
						t.Fatalf("%v: k=1 parallel accounting differs: %+v / %+v", src, pagg, pks)
					}
				}
			})
		}
	}
}

// TestKSampleOptionsValidation: a negative candidate count is a
// construction-time error with a clear message; 0 and 1 are accepted
// and mean pure algorithm H.
func TestKSampleOptionsValidation(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	if _, err := NewSelector(m, Options{Variant: Variant2D, KSample: -1}); err == nil {
		t.Fatal("KSample=-1 accepted")
	}
	for _, k := range []int{0, 1, 8} {
		if _, err := NewSelector(m, Options{Variant: Variant2D, KSample: k}); err != nil {
			t.Fatalf("KSample=%d rejected: %v", k, err)
		}
	}
}

// TestKSampleCommitProperties: for k > 1, every packet's committed
// candidate must (a) score <= every other candidate against the
// snapshot, (b) be the LOWEST index achieving that minimum (the
// deterministic tie-break), (c) reproduce exactly as the plain path of
// stream KSampleStream(i, committed), and (d) carry a score equal to
// an independent SegPathMaxLoad recount. The hook's score vector is
// checked against full recounts of every candidate: candidate 0 and
// every challenger that beat its incumbent are exact, and an abandoned
// challenger reads at least the incumbent's score and at most its own.
// The ties cases use 0/1 loads, where most challengers are abandoned
// on reaching an equal score.
func TestKSampleCommitProperties(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
		snap func(*mesh.Mesh, uint64) []int64
	}{
		{"mesh", mesh.MustSquare(2, 16), fakeSnapshot},
		{"torus", mesh.MustSquareTorus(2, 16), fakeSnapshot},
		{"mesh-ties", mesh.MustSquare(2, 16), tieSnapshot},
		{"torus-ties", mesh.MustSquareTorus(2, 16), tieSnapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k = 4
			opt := Options{Variant: Variant2D, Seed: 9, KSample: k}
			sel := MustNewSelector(tc.m, opt)
			plain := MustNewSelector(tc.m, Options{Variant: Variant2D, Seed: 9})
			prob := workload.RandomPermutation(tc.m, 31)
			snap := tc.snap(tc.m, 5)

			checked, abandoned, atEqual := 0, 0, 0
			h := KSegHooks{Cand: func(pkt int, pr mesh.Pair, sp mesh.SegPath, _ Stats, committed int, scores []int64) {
				if len(scores) != k {
					t.Errorf("packet %d: %d scores, want %d", pkt, len(scores), k)
				}
				for j, sc := range scores {
					if scores[committed] > sc {
						t.Errorf("packet %d: committed %d score %d > candidate %d score %d",
							pkt, committed, scores[committed], j, sc)
					}
					if j < committed && sc == scores[committed] {
						t.Errorf("packet %d: tie at %d not broken toward lower index (committed %d)",
							pkt, j, committed)
					}
				}
				replay := plain.SegPath(pr.S, pr.T, KSampleStream(uint64(pkt), committed))
				if !segPathEqual(replay, sp) {
					t.Errorf("packet %d: committed path does not replay from KSampleStream(%d,%d)",
						pkt, pkt, committed)
				}
				if got := metrics.SegPathMaxLoad(tc.m, snap, sp); got != scores[committed] {
					t.Errorf("packet %d: committed score %d != recount %d", pkt, scores[committed], got)
				}
				// The loser-score contract, against full recounts.
				var best int64
				for j, sc := range scores {
					full := metrics.SegPathMaxLoad(tc.m, snap, plain.SegPath(pr.S, pr.T, KSampleStream(uint64(pkt), j)))
					switch {
					case j == 0 || full < best:
						if sc != full {
							t.Errorf("packet %d: candidate %d reads %d, want its exact score %d", pkt, j, sc, full)
						}
						best = full
					case sc < best || sc > full:
						t.Errorf("packet %d: abandoned candidate %d reads %d, want in [%d, %d]", pkt, j, sc, best, full)
					case sc != full:
						abandoned++
						if sc == best {
							atEqual++
						}
					}
				}
				checked++
			}}
			sps := make([]mesh.SegPath, len(prob.Pairs))
			_, ks := sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: sps, Hooks: h})
			if checked != len(prob.Pairs) {
				t.Fatalf("observer saw %d packets, want %d", checked, len(prob.Pairs))
			}
			if ks.Candidates != int64(k*len(prob.Pairs)) {
				t.Fatalf("candidates %d, want %d", ks.Candidates, k*len(prob.Pairs))
			}
			if ks.RedrawWins == 0 {
				t.Fatal("no redraw wins against a non-uniform snapshot — sampling is not engaging")
			}
			if ks.CommitScoreSum > ks.FirstScoreSum {
				t.Fatalf("commit score sum %d exceeds candidate-0 sum %d", ks.CommitScoreSum, ks.FirstScoreSum)
			}
			if atEqual == 0 {
				t.Fatalf("no challenger was abandoned at an equal score (%d abandoned in all)", abandoned)
			}
			t.Logf("%d redraw wins; %d challengers abandoned short of their score, %d of them at equality",
				ks.RedrawWins, abandoned, atEqual)
		})
	}
}

// TestKSampleDeterminism: against one frozen snapshot the committed
// paths (and the sampling stats) are identical for the serial engine,
// every parallel worker count, and any chunked range split — the
// reproducibility contract the routing service's chunked epochs and
// meshroute's -workers flag rely on.
func TestKSampleDeterminism(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 17, KSample: 4})
	prob := workload.RandomPermutation(m, 23)
	snap := fakeSnapshot(m, 99)

	want := make([]mesh.SegPath, len(prob.Pairs))
	wantAgg, wantKS := sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: want})

	for _, workers := range []int{1, 3, 8} {
		sps := make([]mesh.SegPath, len(prob.Pairs))
		agg, ks := sel.Select(Request{Pairs: prob.Pairs, Workers: workers, Snapshot: snap, Segs: sps})
		if !segPathsEqual(sps, want) {
			t.Fatalf("workers=%d: paths differ from serial", workers)
		}
		if agg != wantAgg || ks != wantKS {
			t.Fatalf("workers=%d: accounting differs: %+v/%+v vs %+v/%+v",
				workers, agg, ks, wantAgg, wantKS)
		}
	}

	// Chunked ranges compose into exactly the whole-range answer.
	sps := make([]mesh.SegPath, len(prob.Pairs))
	var agg Aggregate
	var ks KStats
	for lo := 0; lo < len(prob.Pairs); lo += 60 {
		hi := lo + 60
		if hi > len(prob.Pairs) {
			hi = len(prob.Pairs)
		}
		cagg, cks := sel.Select(Request{Pairs: prob.Pairs[lo:hi], Base: uint64(lo), Workers: 3, Snapshot: snap, Segs: sps[lo:hi]})
		agg.Merge(cagg)
		ks.Merge(cks)
	}
	if !segPathsEqual(sps, want) {
		t.Fatal("chunked ranges compose to different paths")
	}
	if agg != wantAgg || ks != wantKS {
		t.Fatalf("chunked accounting differs: %+v/%+v vs %+v/%+v", agg, ks, wantAgg, wantKS)
	}
}

// TestKSampleFeedbackReducesCongestion: the end-to-end claim — with
// epoch feedback, best-of-4 selection must not congest worse than pure
// H on a congestion-prone workload (and on this fixed seed strictly
// improves it).
func TestKSampleFeedbackReducesCongestion(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	prob := workload.Transpose(m)
	congestionAt := func(k int) int {
		sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 3, KSample: k})
		live := metrics.NewLiveLoads(m, 0)
		sps := make([]mesh.SegPath, len(prob.Pairs))
		snap := make([]int64, m.EdgeSpace())
		h := KSegHooks{Seg: func(pkt int, _ mesh.Pair, sp mesh.SegPath, _ Stats) {
			live.AddSegPath(m, uint64(pkt), sp)
		}}
		chunk := len(prob.Pairs) / 8
		for lo := 0; lo < len(prob.Pairs); lo += chunk {
			hi := lo + chunk
			if hi > len(prob.Pairs) {
				hi = len(prob.Pairs)
			}
			live.SnapshotInto(snap)
			sel.Select(Request{Pairs: prob.Pairs[lo:hi], Base: uint64(lo), Workers: 4, Snapshot: snap, Segs: sps[lo:hi], Hooks: h})
		}
		return metrics.CongestionSeg(m, sps)
	}
	c1, c4 := congestionAt(1), congestionAt(4)
	if c4 > c1 {
		t.Fatalf("k=4 congestion %d worse than pure H %d", c4, c1)
	}
	if c4 == c1 {
		t.Logf("k=4 matched pure H at %d (no strict improvement on this seed)", c1)
	}
}

// FuzzKSampleSelect fuzzes the single-packet k-sample entry point over
// endpoints, stream, candidate count and snapshot contents on a mesh
// and a torus: the committed path must replay exactly as the plain
// path of its candidate stream, start at s, end at t, never leave the
// mesh (Dest recomputes the walk arithmetically), score no worse than
// every re-derived candidate, and at k = 1 equal the pure-H path. A
// loadSeed with its top bit set draws a 0/1 tieSnapshot instead, where
// most candidates tie and challengers are abandoned at equality; the
// oracle recounts every candidate in full, so it checks the commit
// without trusting any abandoned score.
func FuzzKSampleSelect(f *testing.F) {
	const ties = uint64(1) << 63
	f.Add(uint16(0), uint16(63), uint64(0), uint8(1), uint64(1), false)
	f.Add(uint16(5), uint16(58), uint64(7), uint8(4), uint64(42), false)
	f.Add(uint16(12), uint16(12), uint64(3), uint8(8), uint64(9), true)
	f.Add(uint16(1), uint16(2), uint64(1<<40), uint8(2), uint64(0), true)
	f.Add(uint16(63), uint16(0), uint64(12345), uint8(3), uint64(77), false)
	f.Add(uint16(5), uint16(58), uint64(7), uint8(7), ties|5, false)
	f.Add(uint16(3), uint16(44), uint64(99), uint8(3), ties|6, true)
	f.Add(uint16(60), uint16(9), uint64(1<<33), uint8(5), ties|77, false)

	mMesh := mesh.MustSquare(2, 8)
	mTorus := mesh.MustSquareTorus(2, 8)
	sels := map[string]map[int]*Selector{"mesh": {}, "torus": {}}
	plain := map[string]*Selector{
		"mesh":  MustNewSelector(mMesh, Options{Variant: Variant2D, Seed: 6}),
		"torus": MustNewSelector(mTorus, Options{Variant: Variant2D, Seed: 6}),
	}

	f.Fuzz(func(t *testing.T, sRaw, tRaw uint16, stream uint64, kRaw uint8, loadSeed uint64, torus bool) {
		m, name := mMesh, "mesh"
		if torus {
			m, name = mTorus, "torus"
		}
		s := mesh.NodeID(int(sRaw) % m.Size())
		dst := mesh.NodeID(int(tRaw) % m.Size())
		k := 1 + int(kRaw)%8
		sel, ok := sels[name][k]
		if !ok {
			sel = MustNewSelector(m, Options{Variant: Variant2D, Seed: 6, KSample: k})
			sels[name][k] = sel
		}
		snap := fakeSnapshot(m, loadSeed)
		if loadSeed&ties != 0 {
			snap = tieSnapshot(m, loadSeed)
		}

		sp, committed, ks := sel.KSegPath(s, dst, stream, snap)
		if committed < 0 || committed >= k {
			t.Fatalf("committed index %d out of [0,%d)", committed, k)
		}
		if ks.Candidates != int64(k) {
			t.Fatalf("candidates %d, want %d", ks.Candidates, k)
		}
		if sp.Start != s {
			t.Fatalf("path starts at %d, want %d", sp.Start, s)
		}
		if got := sp.Dest(m); got != dst {
			t.Fatalf("path ends at %d, want %d", got, dst)
		}
		replay := plain[name].SegPath(s, dst, KSampleStream(stream, committed))
		if !segPathEqual(replay, sp) {
			t.Fatalf("committed path does not replay from candidate stream %d", committed)
		}
		commitScore := metrics.SegPathMaxLoad(m, snap, sp)
		if k == 1 {
			if committed != 0 {
				t.Fatalf("k=1 committed candidate %d", committed)
			}
			if want := plain[name].SegPath(s, dst, stream); !segPathEqual(want, sp) {
				t.Fatal("k=1 path differs from pure algorithm H")
			}
			return
		}
		for j := 0; j < k; j++ {
			cand := plain[name].SegPath(s, dst, KSampleStream(stream, j))
			score := metrics.SegPathMaxLoad(m, snap, cand)
			if commitScore > score {
				t.Fatalf("committed score %d > candidate %d score %d", commitScore, j, score)
			}
			if j < committed && score == commitScore {
				t.Fatalf("tie at candidate %d not broken toward lower index (committed %d)", j, committed)
			}
		}
	})
}

package core

import (
	"sync/atomic"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// FuzzSelectorPath throws arbitrary endpoint/stream combinations at
// every selector configuration and checks the universal invariants:
// valid walk, simple after cycle removal, raw stretch within the
// theorem envelope.
func FuzzSelectorPath(f *testing.F) {
	f.Add(uint32(0), uint32(1023), uint64(0), uint8(0))
	f.Add(uint32(500), uint32(501), uint64(7), uint8(1))
	f.Add(uint32(31), uint32(992), uint64(99), uint8(2))
	f.Add(uint32(5), uint32(5), uint64(3), uint8(3))

	sels := []*Selector{
		MustNewSelector(mesh.MustSquare(2, 32), Options{Variant: Variant2D, Seed: 1}),
		MustNewSelector(mesh.MustSquare(2, 32), Options{Variant: VariantGeneral, Seed: 1}),
		MustNewSelector(mesh.MustSquareTorus(2, 32), Options{Variant: Variant2D, Seed: 1}),
		MustNewSelector(mesh.MustSquare(3, 8), Options{Variant: VariantGeneral, Seed: 1}),
	}
	limits := []float64{64, 50 * 4, 64, 50 * 9}

	f.Fuzz(func(t *testing.T, a, b uint32, stream uint64, selPick uint8) {
		i := int(selPick) % len(sels)
		sel := sels[i]
		m := sel.Mesh()
		s := mesh.NodeID(int(a) % m.Size())
		d := mesh.NodeID(int(b) % m.Size())
		p, st := sel.PathStats(s, d, stream)
		if err := m.Validate(p, s, d); err != nil {
			t.Fatalf("selector %d: %v", i, err)
		}
		if !p.IsSimple() {
			t.Fatalf("selector %d: non-simple path", i)
		}
		if s != d {
			if stretch := float64(st.RawLen) / float64(m.Dist(s, d)); stretch > limits[i] {
				t.Fatalf("selector %d: stretch %v exceeds %v", i, stretch, limits[i])
			}
		}
		if st.Len != p.Len() {
			t.Fatalf("selector %d: stats.Len %d != path len %d", i, st.Len, p.Len())
		}
		// The segment-native selector must agree with the hop selector
		// on every fuzzed packet: same stats, expansion byte-identical.
		sp, sst := sel.SegPathStats(s, d, stream)
		if sst != st {
			t.Fatalf("selector %d: seg stats %+v != hop stats %+v", i, sst, st)
		}
		ep := sp.Expand(m)
		if len(ep) != len(p) {
			t.Fatalf("selector %d: seg expansion len %d != hop len %d", i, len(ep), len(p))
		}
		for k := range p {
			if ep[k] != p[k] {
				t.Fatalf("selector %d: seg expansion differs at %d", i, k)
			}
		}
	})
}

// FuzzSelect draws a random Request — hop or run form, sampling on or
// off, arena on or off, a stream base, a two-chunk split and 1–3
// workers — and checks Select's contract: every packet's output equals
// the one-packet entry point at stream Base+j (Path, SegPath, or
// KSegPath when sampling), every hook sees each packet's stream once,
// and the chunked multi-worker accounting equals one unchunked
// Workers: 1 call.
func FuzzSelect(f *testing.F) {
	f.Add(uint64(1), uint8(17), uint64(0), uint8(0), uint8(5), uint8(2), uint64(3))
	f.Add(uint64(2), uint8(40), uint64(1000), uint8(1), uint8(13), uint8(3), uint64(9))
	f.Add(uint64(3), uint8(33), uint64(7), uint8(6), uint8(0), uint8(1), uint64(42))
	f.Add(uint64(4), uint8(0), uint64(1<<39), uint8(7), uint8(9), uint8(3), uint64(5))

	m := mesh.MustSquare(2, 8)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 6, KSample: 3})

	f.Fuzz(func(t *testing.T, pairSeed uint64, nRaw uint8, base uint64, mode uint8, split uint8, workersRaw uint8, loadSeed uint64) {
		hops, sampling, arena := mode&1 != 0, mode&2 != 0, mode&4 != 0
		n := int(nRaw) % 64
		base %= 1 << 40 // below the candidate-stream bits
		pairs := workload.RandomPairs(m, n, pairSeed).Pairs
		var snap []int64
		if sampling {
			snap = fakeSnapshot(m, loadSeed)
		}

		// out builds a Request of the fuzzed form over pairs[lo:hi].
		out := func(lo, hi int, paths []mesh.Path, sps []mesh.SegPath) Request {
			req := Request{Pairs: pairs[lo:hi], Base: base + uint64(lo), Snapshot: snap}
			if hops {
				req.Paths = paths[lo:hi]
			} else {
				req.Segs = sps[lo:hi]
			}
			return req
		}
		wantPaths, wantSegs := make([]mesh.Path, n), make([]mesh.SegPath, n)
		whole := out(0, n, wantPaths, wantSegs)
		whole.Workers = 1
		wantAgg, wantKS := sel.Select(whole)

		gotPaths, gotSegs := make([]mesh.Path, n), make([]mesh.SegPath, n)
		seen := make([]int32, n)
		mark := func(packet int, pr mesh.Pair) {
			j := packet - int(base)
			if j < 0 || j >= n || pairs[j] != pr {
				t.Errorf("hook got packet %d (%v), outside the batch or for another pair", packet, pr)
				return
			}
			atomic.AddInt32(&seen[j], 1)
		}
		var ag *SegArenaGroup
		if arena {
			ag = &SegArenaGroup{}
		}
		c := int(split) % (n + 1)
		var agg Aggregate
		var ks KStats
		for _, r := range [][2]int{{0, c}, {c, n}} {
			req := out(r[0], r[1], gotPaths, gotSegs)
			req.Workers = 1 + int(workersRaw)%3
			req.Arena = ag
			if hops {
				req.Hooks.Path = func(p int, pr mesh.Pair, _ mesh.Path, _ Stats) { mark(p, pr) }
			} else {
				req.Hooks.Cand = func(p int, pr mesh.Pair, _ mesh.SegPath, _ Stats, _ int, _ []int64) { mark(p, pr) }
			}
			cagg, cks := sel.Select(req)
			agg.Merge(cagg)
			ks.Merge(cks)
		}
		if agg != wantAgg || ks != wantKS {
			t.Fatalf("chunked accounting %+v/%+v != unchunked %+v/%+v", agg, ks, wantAgg, wantKS)
		}

		for j, pr := range pairs {
			if seen[j] != 1 {
				t.Fatalf("packet %d reported %d times", j, seen[j])
			}
			stream := base + uint64(j)
			want := sel.SegPath(pr.S, pr.T, stream)
			if sampling {
				want, _, _ = sel.KSegPath(pr.S, pr.T, stream, snap)
			}
			if hops {
				if !pathsEqual([]mesh.Path{gotPaths[j], wantPaths[j]}, []mesh.Path{want.Expand(m), want.Expand(m)}) {
					t.Fatalf("packet %d: hop path differs from stream %d's", j, stream)
				}
				if !sampling && !pathsEqual([]mesh.Path{gotPaths[j]}, []mesh.Path{sel.Path(pr.S, pr.T, stream)}) {
					t.Fatalf("packet %d: hop path differs from Path at stream %d", j, stream)
				}
			} else if !segPathsEqual([]mesh.SegPath{gotSegs[j], wantSegs[j]}, []mesh.SegPath{want, want}) {
				t.Fatalf("packet %d: run path differs from stream %d's", j, stream)
			}
		}
	})
}

package core

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/workload"
)

// sink defeats dead-code elimination in benchmarks and alloc guards.
var sink interface{}

// BenchmarkSelectAll prices the fused hop-path batch engine under both
// chain backends — the compiled table (default) and per-packet
// recomputation — on the same problem with the same seed (the selected
// paths are byte-identical — TestRouteTableGoldenEquality asserts it).
func BenchmarkSelectAll(b *testing.B) {
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
		v    Variant
	}{
		{"2d-side32", mesh.MustSquare(2, 32), Variant2D},
		{"2d-side64", mesh.MustSquare(2, 64), Variant2D},
		{"3d-side8", mesh.MustSquare(3, 8), VariantGeneral},
	} {
		prob := workload.RandomPermutation(c.m, 3)
		for _, cs := range []ChainSource{ChainSourceTable, ChainSourceNone} {
			b.Run(c.name+"/"+cs.String(), func(b *testing.B) {
				sel := MustNewSelector(c.m, Options{Variant: c.v, Seed: 1, ChainSource: cs})
				paths := make([]mesh.Path, len(prob.Pairs))
				sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Paths: paths}) // warm pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Paths: paths})
				}
				sink = paths
			})
		}
	}
}

// BenchmarkSelectAllSeg is the segment-native batch engine across the
// two chain backends — the compiled routing table (default) and
// per-packet recomputation — on full random permutations. Both select
// byte-identical paths (TestRouteTableGoldenEquality); this prices the
// dispatch. The side-256 rows are the figures the default backend is
// judged on (TestBenchGateSelectAllSegTable enforces their ratio).
func BenchmarkSelectAllSeg(b *testing.B) {
	for _, c := range []struct {
		name string
		side int
	}{
		{"2d-side64", 64},
		{"2d-side256", 256},
	} {
		m := mesh.MustSquare(2, c.side)
		prob := workload.RandomPermutation(m, 3)
		for _, cs := range []ChainSource{ChainSourceTable, ChainSourceNone} {
			b.Run(c.name+"/"+cs.String(), func(b *testing.B) {
				sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1, ChainSource: cs})
				sps := make([]mesh.SegPath, len(prob.Pairs))
				sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps}) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps})
				}
				sink = sps
			})
		}
	}
}

// TestBenchGateSelectAllSegTable is the CI benchmark gate for the
// default chain backend: on the side-256 headline permutation the warm
// default selector (the compiled table) must route at least
// minTableSpeedup times as fast per batch as the ChainSourceNone
// recompute reference. The gate runs with the regular suite (and
// explicitly in `make bench-smoke`) so a dispatch regression fails
// fast, not only when someone re-runs `make bench-json`.
func TestBenchGateSelectAllSegTable(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race runtime distorts ns/op; the gate runs in the non-race suite")
	}
	// Over 12 runs of this gate on a 2-vCPU x86-64 container the ratio
	// ranged 1.57x–2.12x (median 1.82x); chain dispatch is about a
	// tenth of a table-mode packet, the rest is waypoints, staircases
	// and cycle excision shared by both backends. 1.4x leaves room for
	// noisy hosts while still failing if the table loses its edge.
	const minTableSpeedup = 1.4
	m := mesh.MustSquare(2, 256)
	prob := workload.RandomPermutation(m, 3)
	// Scheduler noise only ever adds time, so each mode takes the best
	// of two measurements — the ratio of minima tracks the true ratio
	// far more tightly than any single run.
	measure := func(opt Options) float64 {
		sel := MustNewSelector(m, opt)
		sps := make([]mesh.SegPath, len(prob.Pairs))
		sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps}) // warm
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps})
				}
			})
			if ns := float64(r.NsPerOp()); best == 0 || ns < best {
				best = ns
			}
		}
		sink = sps
		return best
	}
	def := measure(Options{Variant: Variant2D, Seed: 1})
	none := measure(Options{Variant: Variant2D, Seed: 1, ChainSource: ChainSourceNone})
	if def*minTableSpeedup > none {
		t.Fatalf("default-backend SelectAllSeg side-256: %.0f ns/op vs recompute %.0f ns/op (%.2fx), want >= %.1fx",
			def, none, none/def, minTableSpeedup)
	}
	t.Logf("default (table) %.0f ns/op, recompute %.0f ns/op: %.2fx", def, none, none/def)
}

// TestBenchGateLiveBooking is the CI benchmark gate for live load
// accounting: booking the side-256 headline permutation into a
// LiveLoads tracker with AddSegPath — two atomic adds per run — must
// cost at most maxBookingRatio times the plain, non-atomic per-hop
// recount AccumulateEdgeLoadsSeg of the same paths, measured in the
// same run. A per-hop booking loop (one atomic add per hop) costs about
// 1.6 times the recount; a regression to it fails here.
func TestBenchGateLiveBooking(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race runtime distorts ns/op; the gate runs in the non-race suite")
	}
	// The run-length tracker measured about 0.3x on a 2-vCPU x86-64
	// container (a side-256 path is ~17 runs for ~390 hops).
	const maxBookingRatio = 0.5
	m := mesh.MustSquare(2, 256)
	prob := workload.RandomPermutation(m, 3)
	sps, _ := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1}).SelectAllSeg(prob.Pairs)
	live := metrics.NewLiveLoads(m, 2)
	loads := make([]int64, m.EdgeSpace())
	// Best of two runs per mode: scheduler noise only ever adds time.
	measure := func(body func()) float64 {
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body()
				}
			})
			if ns := float64(r.NsPerOp()); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	book := measure(func() {
		for i, sp := range sps {
			live.AddSegPath(m, uint64(i), sp)
		}
	})
	recount := measure(func() { metrics.AccumulateEdgeLoadsSeg(m, sps, loads) })
	sink = loads
	if book > maxBookingRatio*recount {
		t.Fatalf("AddSegPath side-256 batch: %.0f ns/op vs per-hop recount %.0f ns/op (%.2fx), want <= %.1fx",
			book, recount, book/recount, maxBookingRatio)
	}
	t.Logf("AddSegPath %.0f ns/op, per-hop recount %.0f ns/op: %.2fx", book, recount, book/recount)
}

// BenchmarkSelectAllParallel measures the parallel fused engine under
// both chain backends (workers share the read-only table).
func BenchmarkSelectAllParallel(b *testing.B) {
	m := mesh.MustSquare(2, 64)
	prob := workload.RandomPermutation(m, 3)
	for _, workers := range []int{2, 4, 8} {
		for _, cs := range []ChainSource{ChainSourceTable, ChainSourceNone} {
			b.Run(fmt.Sprintf("workers%d/%s", workers, cs), func(b *testing.B) {
				sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1, ChainSource: cs})
				paths := make([]mesh.Path, len(prob.Pairs))
				sel.Select(Request{Pairs: prob.Pairs, Workers: workers, Paths: paths})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sel.Select(Request{Pairs: prob.Pairs, Workers: workers, Paths: paths})
				}
				sink = paths
			})
		}
	}
}

// BenchmarkPathWarm measures the single-packet entry point with a warm
// scratch pool — the per-request cost a streaming Session pays.
func BenchmarkPathWarm(b *testing.B) {
	for _, cs := range []ChainSource{ChainSourceTable, ChainSourceNone} {
		b.Run(cs.String(), func(b *testing.B) {
			m := mesh.MustSquare(2, 64)
			sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1, ChainSource: cs})
			s, t := mesh.NodeID(0), mesh.NodeID(m.Size()-1)
			sink = sel.Path(s, t, 0) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = sel.Path(s, t, uint64(i&7))
			}
		})
	}
}

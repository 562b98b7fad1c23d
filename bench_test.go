// Benchmark harness: one benchmark per reproduced table/figure (the
// Benchmark{F1,F2,E1..E10}* family runs the corresponding experiment
// of internal/experiments at Quick scale), plus micro-benchmarks of
// the core operations so performance regressions in the algorithm
// itself are visible (BenchmarkPath*, BenchmarkChain, ...).
//
// Run everything:
//
//	go test -bench=. -benchmem
package obliviousmesh_test

import (
	"fmt"
	"testing"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/baseline"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/experiments"
	"obliviousmesh/internal/flow"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/sim"
	"obliviousmesh/internal/workload"
)

var benchCfg = experiments.Config{Seed: 1, Quick: true}

// sink defeats dead-code elimination.
var sink interface{}

func benchExperiment(b *testing.B, run func(experiments.Config) interface{}) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sink = run(benchCfg)
	}
}

// --- One benchmark per reproduced figure/table (DESIGN.md §4) ---

func BenchmarkF1Decomposition2D(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.F1Decomposition2D(c) })
}

func BenchmarkF2DecompositionD(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.F2DecompositionD(c) })
}

func BenchmarkE1Stretch2D(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E1Stretch2D(c) })
}

func BenchmarkE2Congestion2D(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E2Congestion2D(c) })
}

func BenchmarkE3StretchD(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E3StretchD(c) })
}

func BenchmarkE4CongestionD(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E4CongestionD(c) })
}

func BenchmarkE5RandomBits(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E5RandomBits(c) })
}

func BenchmarkE6Adversarial(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E6Adversarial(c) })
}

func BenchmarkE7Baselines(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E7Baselines(c) })
}

func BenchmarkE8Structure(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E8Structure(c) })
}

func BenchmarkE9Simulation(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E9Simulation(c) })
}

func BenchmarkE10Ablations(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E10Ablations(c) })
}

func BenchmarkE11Torus(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E11Torus(c) })
}

func BenchmarkE12Scheduling(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E12Scheduling(c) })
}

func BenchmarkE13Concentration(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E13Concentration(c) })
}

func BenchmarkE14Charging(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E14Charging(c) })
}

func BenchmarkE15Bounds(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E15Bounds(c) })
}

func BenchmarkE16Online(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E16Online(c) })
}

func BenchmarkE17Balance(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E17Balance(c) })
}

func BenchmarkE18Adaptive(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E18Adaptive(c) })
}

func BenchmarkE19Saturation(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E19Saturation(c) })
}

func BenchmarkE20WorstCase(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E20WorstCase(c) })
}

// BenchmarkFlowLowerBound measures the fractional C* estimation.
func BenchmarkFlowLowerBound(b *testing.B) {
	m := mesh.MustSquare(2, 16)
	prob := workload.Transpose(m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = flow.EstimateCongestion(m, prob.Pairs, flow.Options{Iterations: 8})
	}
}

// --- Micro-benchmarks of the core algorithm ---

// BenchmarkPathSelect2D measures one oblivious path selection on 2-D
// meshes of growing side (the headline operation of the paper). The
// headline representation is the run-length SegPath (DESIGN.md §11):
// its size is O(runs), not O(hops), so the bytes/op column stays nearly
// flat as the side grows. BenchmarkPathSelect2DExpand below prices the
// legacy node-list materialization for comparison.
func BenchmarkPathSelect2D(b *testing.B) {
	for _, side := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("side%d", side), func(b *testing.B) {
			m := mesh.MustSquare(2, side)
			sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
			s := mesh.NodeID(0)
			t := mesh.NodeID(m.Size() - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = sel.SegPath(s, t, uint64(i))
			}
		})
	}
}

// BenchmarkPathSelect2DExpand measures the same selection materialized
// as a node list (SegPath + Expand, byte-identical to the legacy hop
// engine) — the before/after companion of BenchmarkPathSelect2D.
func BenchmarkPathSelect2DExpand(b *testing.B) {
	for _, side := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("side%d", side), func(b *testing.B) {
			m := mesh.MustSquare(2, side)
			sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
			s := mesh.NodeID(0)
			t := mesh.NodeID(m.Size() - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = sel.SegPath(s, t, uint64(i)).Expand(m)
			}
		})
	}
}

// TestBenchGatePathSelect2D is the CI benchmark gate for the run-length
// hot path: one side-256 selection must allocate less than half of the
// BENCH_PR4.json hop-path baseline (5818 B/op), i.e. < 2909 B/op. The
// gate runs with the regular suite (and explicitly in `make
// bench-smoke`) so an allocation regression fails fast, not only when
// someone re-runs `make bench-json`.
func TestBenchGatePathSelect2D(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race runtime inflates B/op; the gate runs in the non-race suite")
	}
	m := mesh.MustSquare(2, 256)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	s, d := mesh.NodeID(0), mesh.NodeID(m.Size()-1)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = sel.SegPath(s, d, uint64(i))
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 2909 {
		t.Fatalf("PathSelect2D/side256 allocates %d B/op, want < 2909 (half the 5818 B/op hop baseline in BENCH_PR4.json)", got)
	}
}

// BenchmarkPathSelectD measures path selection as the dimension grows.
func BenchmarkPathSelectD(b *testing.B) {
	for _, c := range []struct{ d, side int }{{2, 64}, {3, 16}, {4, 8}, {5, 8}} {
		b.Run(fmt.Sprintf("d%d", c.d), func(b *testing.B) {
			m := mesh.MustSquare(c.d, c.side)
			sel := core.MustNewSelector(m, core.Options{Variant: core.VariantGeneral, Seed: 1})
			s := mesh.NodeID(0)
			t := mesh.NodeID(m.Size() - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = sel.Path(s, t, uint64(i))
			}
		})
	}
}

// BenchmarkChainConstruction isolates the bitonic-chain computation
// (decomposition arithmetic, no path materialization).
func BenchmarkChainConstruction(b *testing.B) {
	dc := decomp.MustNew(mesh.MustSquare(3, 32), decomp.ModeGeneral)
	m := dc.Mesh()
	s := m.CoordOf(0)
	t := m.CoordOf(mesh.NodeID(m.Size() - 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chain, _ := dc.BitonicChainD(s, t)
		sink = chain
	}
}

// BenchmarkBridgeSearch isolates the bridge lookup of §4.1.
func BenchmarkBridgeSearch(b *testing.B) {
	dc := decomp.MustNew(mesh.MustSquare(3, 32), decomp.ModeGeneral)
	m := dc.Mesh()
	s := m.CoordOf(mesh.NodeID(m.Size() / 3))
	t := m.CoordOf(mesh.NodeID(m.Size() / 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = dc.BridgeFor(s, t)
	}
}

// BenchmarkSelectPermutation measures routing a full permutation
// (paths for every node of a 32x32 mesh).
func BenchmarkSelectPermutation(b *testing.B) {
	m := mesh.MustSquare(2, 32)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	prob := workload.RandomPermutation(m, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, _ := sel.SelectAll(prob.Pairs)
		sink = paths
	}
}

// BenchmarkSelectPermutationParallel measures the parallel batch
// engine against the sequential baseline above.
func BenchmarkSelectPermutationParallel(b *testing.B) {
	m := mesh.MustSquare(2, 32)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	prob := workload.RandomPermutation(m, 3)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths := make([]mesh.Path, len(prob.Pairs))
				sel.Select(core.Request{Pairs: prob.Pairs, Workers: workers, Paths: paths})
				sink = paths
			}
		})
	}
}

// BenchmarkSelectAndAccount compares the batch pipeline — SelectAll
// followed by a separate full-path EdgeLoads walk — against the fused
// engine, which reports every edge during the single selection pass
// (Select with an edge hook) and reuses per-worker buffers. The fused
// variants do at most one walk per packet and allocate less per op.
func BenchmarkSelectAndAccount(b *testing.B) {
	for _, c := range []struct {
		name    string
		d, side int
		v       core.Variant
	}{
		{"2d-side32", 2, 32, core.Variant2D},
		{"3d-side8", 3, 8, core.VariantGeneral},
	} {
		m := mesh.MustSquare(c.d, c.side)
		sel := core.MustNewSelector(m, core.Options{Variant: c.v, Seed: 1})
		prob := workload.RandomPermutation(m, 3)

		b.Run(c.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths, _ := sel.SelectAll(prob.Pairs)
				sink = metrics.EdgeLoads(m, paths) // second full-path walk
			}
		})
		b.Run(c.name+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			paths := make([]mesh.Path, len(prob.Pairs))
			loads := make([]int64, m.EdgeSpace())
			for i := 0; i < b.N; i++ {
				for e := range loads {
					loads[e] = 0
				}
				sel.Select(core.Request{Pairs: prob.Pairs, Workers: 1, Paths: paths, Hooks: core.Hooks{
					Edge: func(pkt int, e mesh.EdgeID) { loads[e]++ },
				}})
				sink = loads
			}
		})
		b.Run(c.name+"/fused-live-parallel", func(b *testing.B) {
			b.ReportAllocs()
			paths := make([]mesh.Path, len(prob.Pairs))
			live := metrics.NewLiveLoads(m, 0)
			for i := 0; i < b.N; i++ {
				live.Reset()
				sel.Select(core.Request{Pairs: prob.Pairs, Paths: paths, Hooks: core.Hooks{
					Path: func(pkt int, _ mesh.Pair, p mesh.Path, _ core.Stats) {
						live.AddPath(m, uint64(pkt), p)
					},
				}})
				sink = live
			}
		})
	}
}

// BenchmarkLiveLoadsAdd measures the contended cost of one live
// accounting increment across shard counts (8 goroutines hammering
// one hot edge — the worst case sharding exists to absorb).
func BenchmarkLiveLoadsAdd(b *testing.B) {
	m := mesh.MustSquare(2, 32)
	e, _ := m.EdgeBetween(0, 1)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			l := metrics.NewLiveLoads(m, shards)
			b.RunParallel(func(pb *testing.PB) {
				tag := uint64(0)
				for pb.Next() {
					tag++
					l.Add(tag, e)
				}
			})
		})
	}
}

// BenchmarkSessionLiveRoute measures one streaming route with fused
// live accounting against the untracked baseline.
func BenchmarkSessionLiveRoute(b *testing.B) {
	m, _ := obliviousmesh.NewMesh(2, 32)
	r, _ := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 1})
	src, dst := obliviousmesh.NodeID(0), obliviousmesh.NodeID(m.Size()-1)
	b.Run("untracked", func(b *testing.B) {
		s := obliviousmesh.NewSession(r)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = s.Route(src, dst)
		}
	})
	b.Run("live", func(b *testing.B) {
		s := obliviousmesh.NewSessionLive(r, obliviousmesh.NewLiveLoads(m, 0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = s.Route(src, dst)
		}
	})
}

// BenchmarkTorusPathSelect measures torus-variant path selection.
func BenchmarkTorusPathSelect(b *testing.B) {
	m := mesh.MustSquareTorus(2, 64)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	s := mesh.NodeID(0)
	t := mesh.NodeID(m.Size() / 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = sel.Path(s, t, uint64(i))
	}
}

// BenchmarkCongestionMeasure measures the metrics pipeline (edge-load
// tally + boundary-congestion lower bound).
func BenchmarkCongestionMeasure(b *testing.B) {
	m := mesh.MustSquare(2, 32)
	dc := decomp.MustNew(m, decomp.Mode2D)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	prob := workload.RandomPermutation(m, 3)
	paths, _ := sel.SelectAll(prob.Pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = metrics.Evaluate(dc, prob.Pairs, paths)
	}
}

// BenchmarkSimulator measures the store-and-forward scheduler on a
// routed permutation.
func BenchmarkSimulator(b *testing.B) {
	m := mesh.MustSquare(2, 32)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	prob := workload.RandomPermutation(m, 3)
	paths, _ := sel.SelectAll(prob.Pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = sim.Run(m, paths, sim.FurthestToGo)
	}
}

// BenchmarkBaselinePaths compares the per-path cost of the baselines
// against H.
func BenchmarkBaselinePaths(b *testing.B) {
	m := mesh.MustSquare(2, 64)
	tree, err := baseline.AccessTree(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	algos := []baseline.PathSelector{
		baseline.Named{Label: "H", Sel: core.MustNewSelector(m,
			core.Options{Variant: core.Variant2D, Seed: 1})},
		baseline.Named{Label: "access-tree", Sel: tree},
		baseline.DimOrder{M: m},
		baseline.RandomDimOrder{M: m, Seed: 1},
		baseline.RandomMonotone{M: m, Seed: 1},
		baseline.Valiant{M: m, Seed: 1},
	}
	s := mesh.NodeID(0)
	t := mesh.NodeID(m.Size() - 1)
	for _, a := range algos {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = a.Path(s, t, uint64(i))
			}
		})
	}
}

// BenchmarkFacadeEndToEnd exercises the public API round trip used by
// downstream consumers.
func BenchmarkFacadeEndToEnd(b *testing.B) {
	m, err := obliviousmesh.NewMesh(2, 16)
	if err != nil {
		b.Fatal(err)
	}
	r, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prob := obliviousmesh.RandomPermutation(m, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := obliviousmesh.SelectAll(obliviousmesh.Named("H", r), prob.Pairs)
		rep, err := obliviousmesh.Evaluate(m, prob.Pairs, paths)
		if err != nil {
			b.Fatal(err)
		}
		sink = rep
	}
}

func BenchmarkE21Paradigms(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E21Paradigms(c) })
}

func BenchmarkE22Hypercube(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E22Hypercube(c) })
}

func BenchmarkE23BridgeFactor(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E23BridgeFactor(c) })
}

func BenchmarkE24Dynamics(b *testing.B) {
	benchExperiment(b, func(c experiments.Config) interface{} { return experiments.E24Dynamics(c) })
}

package core

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// BenchmarkKSample is the PR-7 headline: the semi-oblivious best-of-k
// engine over the compiled routing table, k ∈ {1, 2, 4, 8}, on full
// random permutations against a frozen load snapshot. k=1 selects
// byte-identical paths to pure algorithm H (TestKSampleGoldenK1) and
// skips scoring entirely; each extra candidate pays one more chain
// walk plus one expansion-free max-load scan, so the cost should grow
// close to linearly in k — TestBenchGateKSample pins the k=4 ratio.
func BenchmarkKSample(b *testing.B) {
	for _, c := range []struct {
		name string
		side int
	}{
		{"2d-side64", 64},
		{"2d-side256", 256},
	} {
		m := mesh.MustSquare(2, c.side)
		prob := workload.RandomPermutation(m, 3)
		snap := fakeSnapshot(m, 11)
		for _, k := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/k%d", c.name, k), func(b *testing.B) {
				sel := MustNewSelector(m, Options{
					Variant: Variant2D, Seed: 1, ChainSource: ChainSourceTable, KSample: k,
				})
				sps := make([]mesh.SegPath, len(prob.Pairs))
				sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: sps}) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: sps})
				}
				sink = sps
			})
		}
	}
}

// TestBenchGateKSample is the CI benchmark gate for k-sampling: on the
// side-64 permutation, best-of-4 selection must cost at most 4.5x the
// k=1 baseline per batch — four chain walks plus three extra scoring
// scans, with only half an x of overhead allowed on top. A regression
// here means the scoring path grew a hidden expansion or allocation.
func TestBenchGateKSample(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race runtime distorts ns/op; the gate runs in the non-race suite")
	}
	m := mesh.MustSquare(2, 64)
	prob := workload.RandomPermutation(m, 3)
	snap := fakeSnapshot(m, 11)
	// Best of two runs per mode: scheduler noise only ever adds time.
	measure := func(k int) float64 {
		sel := MustNewSelector(m, Options{
			Variant: Variant2D, Seed: 1, ChainSource: ChainSourceTable, KSample: k,
		})
		sps := make([]mesh.SegPath, len(prob.Pairs))
		sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: sps}) // warm
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Snapshot: snap, Segs: sps})
				}
			})
			if ns := float64(r.NsPerOp()); best == 0 || ns < best {
				best = ns
			}
		}
		sink = sps
		return best
	}
	k1, k4 := measure(1), measure(4)
	if k4 > 4.5*k1 {
		t.Fatalf("k=4 Select side-64: %.0f ns/op vs k=1 %.0f ns/op (%.2fx), want <= 4.5x",
			k4, k1, k4/k1)
	}
	t.Logf("k=1 %.0f ns/op, k=4 %.0f ns/op: %.2fx", k1, k4, k4/k1)
}

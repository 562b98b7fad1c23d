package core

import (
	"fmt"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// erasePaths is the number of recorded packets per side in the
// loop-erasure benchmark: enough to average over path shapes, small
// enough that the side-1024 corpus stays a few hundred KiB.
const erasePaths = 2048

// eraseCorpus records the raw Algorithm-H runs — the walk before loop
// erasure — of the first erasePaths packets of the seed-3 random
// permutation on the 2-D mesh of the given side (Variant2D, seed 1).
// A KeepCycles selector returns exactly those runs: it draws the same
// randomness and skips only the erasure.
func eraseCorpus(side int) (*mesh.Mesh, []mesh.SegPath) {
	m := mesh.MustSquare(2, side)
	pairs := workload.RandomPermutation(m, 3).Pairs[:erasePaths]
	raw, _ := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1, KeepCycles: true}).SelectAllSeg(pairs)
	return m, raw
}

// eraseAll loop-erases every recorded walk once.
func eraseAll(m *mesh.Mesh, raw []mesh.SegPath, eb *mesh.EraseBuf, buf []mesh.Seg) []mesh.Seg {
	for _, sp := range raw {
		buf, _ = m.LoopErase(sp.Start, sp.Segs, eb, buf)
	}
	return buf
}

// BenchmarkErase prices loop erasure alone (mesh.LoopErase) on
// recorded Algorithm-H walks at sides 64, 256 and 1024, reporting the
// raw walk's hops and runs per path next to the cost per path. The
// cost should follow runs, not hops: TestBenchGateEraseScale pins that.
func BenchmarkErase(b *testing.B) {
	for _, side := range []int{64, 256, 1024} {
		m, raw := eraseCorpus(side)
		b.Run(fmt.Sprintf("2d-side%d", side), func(b *testing.B) {
			hops, runs := 0, 0
			for _, sp := range raw {
				hops += sp.Len()
				runs += len(sp.Segs)
			}
			var eb mesh.EraseBuf
			buf := eraseAll(m, raw, &eb, nil) // warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = eraseAll(m, raw, &eb, buf)
			}
			n := float64(len(raw))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/path")
			b.ReportMetric(float64(hops)/n, "hops/path")
			b.ReportMetric(float64(runs)/n, "runs/path")
		})
	}
}

// TestBenchGateEraseScale is the CI benchmark gate for loop erasure:
// per path, erasing a side-1024 walk may cost at most maxEraseScale
// times erasing a side-256 one. Between the two sides the raw walks
// grow about 4.1x in hops but only about 1.3x in runs, so the gate
// pins "cost follows runs, not hops" without an absolute-time bound. A
// per-hop excision (a last-visit table stamped and re-walked hop by
// hop) measures about 5x here and fails.
func TestBenchGateEraseScale(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race runtime distorts ns/op; the gate runs in the non-race suite")
	}
	const maxEraseScale = 2.5
	// Best of two runs per side: scheduler noise only ever adds time.
	measure := func(side int) float64 {
		m, raw := eraseCorpus(side)
		var eb mesh.EraseBuf
		buf := eraseAll(m, raw, &eb, nil)
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf = eraseAll(m, raw, &eb, buf)
				}
			})
			if ns := float64(r.NsPerOp()) / float64(len(raw)); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	s256, s1024 := measure(256), measure(1024)
	if s1024 > maxEraseScale*s256 {
		t.Fatalf("LoopErase per path: side 1024 %.0f ns vs side 256 %.0f ns (%.2fx), want <= %.1fx",
			s1024, s256, s1024/s256, maxEraseScale)
	}
	t.Logf("LoopErase per path: side 256 %.0f ns, side 1024 %.0f ns: %.2fx", s256, s1024, s1024/s256)
}

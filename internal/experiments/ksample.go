package experiments

import (
	"obliviousmesh/internal/baseline"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/stats"
	"obliviousmesh/internal/workload"
)

// E25KSample sweeps the semi-oblivious candidate count k ∈ {1,2,4,8}
// ("Sparse Semi-Oblivious Routing: Few Random Paths Suffice",
// PAPERS.md): each packet draws k independent algorithm-H candidates
// and commits the one least loaded under a live-congestion snapshot,
// with feedback between epochs. k = 1 is pure algorithm H (the
// oblivious baseline); the offline router brackets from below. The
// max edge load is averaged over independent seeds and must be
// monotone non-increasing in k — a few random paths close most of the
// gap between oblivious and offline congestion.
func E25KSample(cfg Config) *stats.Table {
	t := &stats.Table{
		Title:  "E25 — semi-oblivious k-sample selection: best-of-k candidates vs pure H",
		Header: []string{"k", "side", "N", "C mean", "C/C(k=1)", "redraw wins", "avoided/pkt", "C(offline)", "LB<=C*"},
	}
	side := cfg.pick(16, 32)
	m := mesh.MustSquare(2, side)
	dc := decomp.MustNew(m, decomp.Mode2D)
	prob := workload.Transpose(m)
	lb := metrics.CongestionLowerBound(dc, prob.Pairs)
	cOff := metrics.Congestion(m, baseline.Offline{M: m}.Route(prob.Pairs))
	trials := cfg.pick(3, 5)

	var c1 float64
	for _, k := range []int{1, 2, 4, 8} {
		var cSum, winSum, avoidSum float64
		for tr := 0; tr < trials; tr++ {
			sel := core.MustNewSelector(m, core.Options{
				Variant: core.Variant2D,
				Seed:    cfg.Seed + uint64(101*tr),
				KSample: k,
			})
			c, ks := runKSampleEpochs(sel, prob.Pairs, 8)
			cSum += float64(c)
			winSum += float64(ks.RedrawWins)
			avoidSum += float64(ks.FirstScoreSum - ks.CommitScoreSum)
		}
		cMean := cSum / float64(trials)
		if k == 1 {
			c1 = cMean
		}
		t.AddRow(k, side, prob.N(), cMean, cMean/c1,
			winSum/float64(trials), avoidSum/(float64(trials)*float64(prob.N())),
			cOff, lb)
	}
	t.AddNote("k=1 is pure algorithm H; each k averages C over %d seeds with 8 feedback epochs per run", trials)
	t.AddNote("redraw wins = packets committed to a candidate other than the pure-H path; avoided/pkt = per-packet snapshot score the re-draws saved")
	t.AddNote("semi-oblivious thesis: C is monotone non-increasing in k and approaches the offline (non-oblivious) level while staying O(k) work per packet")
	return t
}

// runKSampleEpochs routes the problem with the k-sample engine in
// `epochs` equal chunks, booking each chunk's committed paths into a
// live tracker before the next chunk snapshots it — the same
// epoch-feedback loop meshroute -live -ksample runs — and returns the
// final max edge load with the sampling stats.
func runKSampleEpochs(sel *core.Selector, pairs []mesh.Pair, epochs int) (int, core.KStats) {
	m := sel.Mesh()
	live := metrics.NewLiveLoads(m, 0)
	sps := make([]mesh.SegPath, len(pairs))
	snap := make([]int64, m.EdgeSpace())
	chunk := (len(pairs) + epochs - 1) / epochs
	if chunk == 0 {
		chunk = 1
	}
	var ks core.KStats
	hooks := core.Hooks{Seg: func(pkt int, _ mesh.Pair, sp mesh.SegPath, _ core.Stats) {
		live.AddSegPath(m, uint64(pkt), sp)
	}}
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		live.SnapshotInto(snap)
		_, eks := sel.Select(core.Request{Pairs: pairs[lo:hi], Base: uint64(lo), Snapshot: snap, Segs: sps[lo:hi], Hooks: hooks})
		ks.Merge(eks)
	}
	return metrics.CongestionSeg(m, sps), ks
}

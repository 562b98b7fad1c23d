package core

import (
	"fmt"
	"sync"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
)

// This file is the semi-oblivious k-sample selection mode ("Sparse
// Semi-Oblivious Routing: Few Random Paths Suffice", PAPERS.md): each
// packet draws k independent algorithm-H candidate paths and commits
// the one whose maximum edge load under a caller-supplied congestion
// snapshot is least, ties broken deterministically by candidate index.
//
// The mode is built so that selection stays a pure function of
// (mesh, seed, k, snapshot): candidates are scored against the frozen
// snapshot — never against counters being mutated mid-batch — so the
// serial and parallel engines pick identical paths for every worker
// count, exactly like the oblivious engines they wrap. Load feedback
// happens BETWEEN calls: route an epoch, account it into a LiveLoads
// tracker, snapshot, route the next epoch against the new snapshot.
//
// k = 1 is pure algorithm H by construction: candidate 0's randomness
// stream is the packet's unmodified stream (KSampleStream(s, 0) == s)
// and no score is computed, so the engine runs the exact instruction
// sequence of the plain segment engine and its output is byte-identical
// across all chain backends (TestKSampleGoldenK1 pins this).

// KSampleStream derives candidate j's randomness stream from a
// packet's stream. Candidate 0 keeps the stream unchanged — that
// identity is the k=1 ≡ H contract — and later candidates flip high
// bits far above both realistic batch indexes and the (s<<24)^t mixing
// of the per-packet reseed, so candidates are independent draws.
// Exported so observers and invariant checks can re-derive the
// committed candidate: a committed path with candidate index c for
// packet stream i replays as (s, t, KSampleStream(i, c)).
func KSampleStream(stream uint64, j int) uint64 {
	return stream ^ (uint64(j) << 48)
}

// KStats accumulates the sampling-side accounting of a k-sample run,
// kept separate from Aggregate (which is representation accounting and
// must stay byte-comparable with the plain engines at k = 1).
type KStats struct {
	// Candidates is the total number of candidate paths drawn.
	Candidates int64
	// RedrawWins counts packets committed to a candidate other than
	// candidate 0 — the packets where sampling actually changed the
	// path algorithm H alone would have taken.
	RedrawWins int64
	// CommitScoreSum sums the committed candidates' snapshot scores.
	CommitScoreSum int64
	// FirstScoreSum sums candidate 0's snapshot scores; the difference
	// to CommitScoreSum is the congestion the re-draws avoided.
	FirstScoreSum int64
	// MaxCommitScore is the largest committed snapshot score.
	MaxCommitScore int64
}

// add folds one packet's sampling outcome into the stats.
func (k *KStats) add(candidates int, committed int, commitScore, firstScore int64) {
	k.Candidates += int64(candidates)
	if committed != 0 {
		k.RedrawWins++
	}
	k.CommitScoreSum += commitScore
	k.FirstScoreSum += firstScore
	if commitScore > k.MaxCommitScore {
		k.MaxCommitScore = commitScore
	}
}

// Merge folds another KStats into k, for combining per-worker stats.
func (k *KStats) Merge(o KStats) {
	k.Candidates += o.Candidates
	k.RedrawWins += o.RedrawWins
	k.CommitScoreSum += o.CommitScoreSum
	k.FirstScoreSum += o.FirstScoreSum
	if o.MaxCommitScore > k.MaxCommitScore {
		k.MaxCommitScore = o.MaxCommitScore
	}
}

// KSampleObserver receives each packet's sampling verdict right after
// the commit: the committed path (caller-owned, safe to retain), its
// Stats, the committed candidate index, and the per-candidate snapshot
// scores. scores aliases per-worker scratch — valid only during the
// call — and has length 1 with a zero entry when k = 1 (no scoring
// happens). With the parallel engines the observer runs concurrently
// from all workers and must be safe for concurrent use.
type KSampleObserver func(packet int, pr mesh.Pair, sp mesh.SegPath, st Stats, committed int, scores []int64)

// KSegHooks bundles the optional observers of the k-sample engines:
// the plain segment hooks (which see only committed paths) plus the
// sampling observer.
type KSegHooks struct {
	Edge Observer
	Seg  SegObserver
	Cand KSampleObserver
}

// ksample returns the effective candidate count (Options.KSample with
// 0 meaning 1).
func (sel *Selector) ksample() int {
	if sel.opt.KSample < 1 {
		return 1
	}
	return sel.opt.KSample
}

// selectKSegInto runs the k-sample selection for one packet: draw k
// candidates with streams KSampleStream(stream, j), score each against
// snapshot, commit the strictly-least-loaded one (candidate order
// breaks ties). Returns the committed path, its Stats — with
// RandomBits covering ALL candidates drawn, since those bits were
// physically consumed — the committed index and the score vector
// (aliasing sc.scores). A nil snapshot scores every candidate 0, so
// candidate 0 wins; k = 1 skips scoring entirely and is byte-identical
// to constructSegInto.
func (sel *Selector) selectKSegInto(s, t mesh.NodeID, stream uint64, snapshot []int64, sc *scratch) (mesh.SegPath, Stats, int, []int64) {
	return sel.selectKSegArena(s, t, stream, snapshot, nil, sc)
}

// selectKSegArena is selectKSegInto with the committed copy placed by
// the caller: a nil arena keeps the private heap copy, a non-nil one
// carves the committed path's Segs from its slab. Candidate racing is
// untouched — losers still live in the alternating scratch buffers —
// so only the commit's destination changes.
func (sel *Selector) selectKSegArena(s, t mesh.NodeID, stream uint64, snapshot []int64, ar *SegArena, sc *scratch) (mesh.SegPath, Stats, int, []int64) {
	k := sel.ksample()
	if cap(sc.scores) < k {
		sc.scores = make([]int64, k)
	}
	scores := sc.scores[:k]
	if k == 1 {
		best, bestStats := sel.constructSegArena(s, t, stream, ar, sc)
		scores[0] = 0
		return best, bestStats, 0, scores
	}
	// The chain is a function of (s, t) alone: resolve it once and let
	// the k candidates differ only in their randomness streams.
	var ch chainRef
	if s != t {
		ch = sel.chainFor(s, t, sc)
	}
	// Candidate race on two alternating run buffers: the incumbent
	// holds one, each challenger is built in the other and scored over
	// its final runs, and a win just swaps the buffer roles. Losing
	// candidates therefore never allocate; only the committed path pays
	// the caller-owned copy.
	bufBest, bufCand := sc.segs2, sc.segs3
	bufBest, bestStats := sel.selectRuns(s, t, stream, ch, bufBest, sc)
	scores[0] = metrics.SegPathMaxLoad(sel.m, snapshot, mesh.SegPath{Start: s, Segs: bufBest})
	bestIdx := 0
	totalBits := bestStats.RandomBits
	for j := 1; j < k; j++ {
		var st Stats
		bufCand, st = sel.selectRuns(s, t, KSampleStream(stream, j), ch, bufCand, sc)
		totalBits += st.RandomBits
		scores[j] = metrics.SegPathMaxLoad(sel.m, snapshot, mesh.SegPath{Start: s, Segs: bufCand})
		if scores[j] < scores[bestIdx] {
			bestStats, bestIdx = st, j
			bufBest, bufCand = bufCand, bufBest
		}
	}
	sc.segs2, sc.segs3 = bufBest, bufCand
	bestStats.RandomBits = totalBits
	return mesh.SegPath{Start: s, Segs: segCopy(ar, bufBest)}, bestStats, bestIdx, scores
}

// SelectAllKSeg routes a whole problem with the k-sample mode against
// one congestion snapshot; packet i draws its candidates from streams
// KSampleStream(i, 0..k-1). The snapshot is indexed by mesh.EdgeID
// (a metrics.LiveLoads Snapshot); nil means an unloaded network, under
// which every packet commits candidate 0.
func (sel *Selector) SelectAllKSeg(pairs []mesh.Pair, snapshot []int64) ([]mesh.SegPath, Aggregate, KStats) {
	sps := make([]mesh.SegPath, len(pairs))
	agg, ks := sel.SelectAllKSegInto(pairs, snapshot, sps, KSegHooks{})
	return sps, agg, ks
}

// SelectAllKSegInto is SelectAllKSeg into a caller-provided slice
// (len(sps) ≥ len(pairs)) with optional fused observers. At k = 1 the
// committed paths and the Aggregate are byte-identical to
// SelectAllSegInto's.
func (sel *Selector) SelectAllKSegInto(pairs []mesh.Pair, snapshot []int64, sps []mesh.SegPath, h KSegHooks) (Aggregate, KStats) {
	if len(sps) < len(pairs) {
		panic(fmt.Sprintf("core: SelectAllKSegInto: seg slice too short (%d < %d)", len(sps), len(pairs)))
	}
	return sel.selectKSegRange(pairs, snapshot, sps, 0, 0, len(pairs), h)
}

// selectKSegRange routes pairs[lo:hi] into sps[lo:hi] with one scratch
// — the per-worker body of the serial and parallel k-sample engines.
// stream0 shifts packet i's base stream to stream0+i (candidates then
// draw from KSampleStream(stream0+i, ·)).
func (sel *Selector) selectKSegRange(pairs []mesh.Pair, snapshot []int64, sps []mesh.SegPath, stream0 uint64, lo, hi int, h KSegHooks) (Aggregate, KStats) {
	sc := sel.getScratch()
	defer sel.putScratch(sc)
	k := sel.ksample()
	var agg Aggregate
	var ks KStats
	for i := lo; i < hi; i++ {
		sp, st, committed, scores := sel.selectKSegInto(pairs[i].S, pairs[i].T, stream0+uint64(i), snapshot, sc)
		sps[i] = sp
		agg.Add(st)
		ks.add(k, committed, scores[committed], scores[0])
		if h.Edge != nil {
			sel.m.SegPathEdges(sp, func(e mesh.EdgeID) { h.Edge(i, e) })
		}
		if h.Seg != nil {
			h.Seg(i, pairs[i], sp, st)
		}
		if h.Cand != nil {
			h.Cand(i, pairs[i], sp, st, committed, scores)
		}
	}
	return agg, ks
}

// SelectAllParallelKSegInto is SelectAllKSegInto across `workers`
// goroutines with the worker-count semantics of SelectAllParallelInto.
// Every worker scores against the same frozen snapshot, so the
// committed paths are identical for every worker count; hooks are
// invoked concurrently from all workers and must be safe for
// concurrent use.
func (sel *Selector) SelectAllParallelKSegInto(pairs []mesh.Pair, snapshot []int64, workers int, sps []mesh.SegPath, h KSegHooks) (Aggregate, KStats) {
	return sel.SelectRangeParallelKSegInto(pairs, snapshot, 0, len(pairs), workers, sps, h)
}

// SelectRangeParallelKSegInto routes pairs[lo:hi] into sps[lo:hi]
// across `workers` goroutines. Packet i keeps its global index as its
// base stream, so deadline-checked chunks compose into exactly the
// paths of one whole-range call against the same snapshot — the
// property the routing service's chunked epochs rely on.
func (sel *Selector) SelectRangeParallelKSegInto(pairs []mesh.Pair, snapshot []int64, lo, hi, workers int, sps []mesh.SegPath, h KSegHooks) (Aggregate, KStats) {
	return sel.SelectRangeParallelKSegBaseInto(pairs, snapshot, 0, lo, hi, workers, sps, h)
}

// SelectRangeParallelKSegBaseInto is SelectRangeParallelKSegInto with
// the packet base streams shifted by stream0: packet i's candidates
// draw from KSampleStream(stream0+i, ·). The k-sample counterpart of
// SelectRangeParallelBaseInto, for servers routing a shard of a larger
// logical batch against one frozen snapshot.
func (sel *Selector) SelectRangeParallelKSegBaseInto(pairs []mesh.Pair, snapshot []int64, stream0 uint64, lo, hi, workers int, sps []mesh.SegPath, h KSegHooks) (Aggregate, KStats) {
	if lo < 0 || hi > len(pairs) || lo > hi {
		panic("core: SelectRangeParallelKSegInto: range out of bounds")
	}
	if len(sps) < hi {
		panic("core: SelectRangeParallelKSegInto: seg slice too short")
	}
	// runRangeParallel merges only Aggregates, so the sampling stats
	// fold under their own lock — contended once per worker, not per
	// packet.
	var mu sync.Mutex
	var ks KStats
	agg := runRangeParallel(lo, hi, workers, func(wlo, whi int) Aggregate {
		wagg, wks := sel.selectKSegRange(pairs, snapshot, sps, stream0, wlo, whi, h)
		mu.Lock()
		ks.Merge(wks)
		mu.Unlock()
		return wagg
	})
	return agg, ks
}

// selectKSegRangeArena is selectKSegRange writing into a
// chunk-relative slice (out[i-base] for packet i) with committed paths
// carved from a leased arena — the per-worker body of
// SelectChunkKSegArena. stream0 shifts packet i's base stream to
// stream0+i.
func (sel *Selector) selectKSegRangeArena(pairs []mesh.Pair, snapshot []int64, out []mesh.SegPath, stream0 uint64, base, lo, hi int, ag *SegArenaGroup, h KSegHooks) (Aggregate, KStats) {
	sc := sel.getScratch()
	defer sel.putScratch(sc)
	var ar *SegArena
	if ag != nil {
		ar = ag.get()
		defer ag.put(ar)
	}
	k := sel.ksample()
	var agg Aggregate
	var ks KStats
	for i := lo; i < hi; i++ {
		sp, st, committed, scores := sel.selectKSegArena(pairs[i].S, pairs[i].T, stream0+uint64(i), snapshot, ar, sc)
		out[i-base] = sp
		agg.Add(st)
		ks.add(k, committed, scores[committed], scores[0])
		if h.Edge != nil {
			sel.m.SegPathEdges(sp, func(e mesh.EdgeID) { h.Edge(i, e) })
		}
		if h.Seg != nil {
			h.Seg(i, pairs[i], sp, st)
		}
		if h.Cand != nil {
			h.Cand(i, pairs[i], sp, st, committed, scores)
		}
	}
	return agg, ks
}

// SelectChunkKSegArena is SelectChunkSegArena for the k-sample mode:
// pairs[lo:hi] into out[0:hi-lo] across `workers` goroutines against
// one frozen snapshot, committed paths slab-backed by ag (nil falls
// back to heap copies). Packet i's candidates draw from streams
// KSampleStream(i, ·), so chunks compose into exactly the paths of one
// whole-range call against the same snapshot. Paths in out die at
// ag.Reset.
func (sel *Selector) SelectChunkKSegArena(pairs []mesh.Pair, snapshot []int64, lo, hi, workers int, out []mesh.SegPath, ag *SegArenaGroup, h KSegHooks) (Aggregate, KStats) {
	return sel.SelectChunkKSegArenaBase(pairs, snapshot, 0, lo, hi, workers, out, ag, h)
}

// SelectChunkKSegArenaBase is SelectChunkKSegArena with the packet base
// streams shifted by stream0 (packet i's candidates draw from
// KSampleStream(stream0+i, ·)) — the k-sample chunked slab engine of a
// server routing a shard of a larger logical batch.
func (sel *Selector) SelectChunkKSegArenaBase(pairs []mesh.Pair, snapshot []int64, stream0 uint64, lo, hi, workers int, out []mesh.SegPath, ag *SegArenaGroup, h KSegHooks) (Aggregate, KStats) {
	if lo < 0 || hi > len(pairs) || lo > hi {
		panic("core: SelectChunkKSegArena: range out of bounds")
	}
	if len(out) < hi-lo {
		panic("core: SelectChunkKSegArena: out slice too short")
	}
	var mu sync.Mutex
	var ks KStats
	agg := runRangeParallel(lo, hi, workers, func(wlo, whi int) Aggregate {
		wagg, wks := sel.selectKSegRangeArena(pairs, snapshot, out, stream0, lo, wlo, whi, ag, h)
		mu.Lock()
		ks.Merge(wks)
		mu.Unlock()
		return wagg
	})
	return agg, ks
}

// KSegPath is the single-packet k-sample entry point: it draws the
// packet's k candidates, scores them against snapshot and returns the
// committed path with its candidate index plus the packet's sampling
// stats (for folding into service counters). At k = 1 the path is
// exactly SegPath(s, t, stream).
func (sel *Selector) KSegPath(s, t mesh.NodeID, stream uint64, snapshot []int64) (mesh.SegPath, int, KStats) {
	sc := sel.getScratch()
	sp, _, committed, scores := sel.selectKSegInto(s, t, stream, snapshot, sc)
	var ks KStats
	ks.add(sel.ksample(), committed, scores[committed], scores[0])
	sel.putScratch(sc)
	return sp, committed, ks
}

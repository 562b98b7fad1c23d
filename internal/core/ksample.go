package core

import (
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
// the commit: the committed path (as Hooks.Seg receives it), its
// Stats, the committed candidate index, and the per-candidate snapshot
// scores. packet is the packet's stream. scores aliases per-worker
// scratch — valid only during the call — and has length 1 with a zero
// entry when the packet was not sampled (no scoring happens).
//
// The committed candidate's score and candidate 0's score are exact.
// A losing candidate's entry may be a lower bound only: scoring stops
// once a challenger's running maximum reaches the score it has to
// beat, so a loser reads as some value ≥ the score it lost to, not
// necessarily its full maximum load (see pick).
type KSampleObserver func(packet int, pr mesh.Pair, sp mesh.SegPath, st Stats, committed int, scores []int64)

// pick selects packet (s, t, stream)'s committed runs. With a nil
// snapshot or KSample ≤ 1 it is plain algorithm H. Otherwise it races
// Options.KSample candidates with streams KSampleStream(stream, j),
// scores each against snapshot and commits the strictly least loaded
// one (candidate order breaks ties); the Stats' RandomBits then cover
// ALL candidates drawn, since those bits were physically consumed. It
// returns the committed runs (aliasing sc's run buffers, valid until
// sc's next packet), their Stats, the committed index and the score
// vector (aliasing sc.scores; a single zero entry when not sampling).
//
// Scoring abandons early. Candidate 0 is scored in full; challenger j
// is scored with the incumbent's score as its limit and stops at the
// first run whose running maximum reaches it. A challenger needs a
// strictly smaller score to win, so an abandoned one could not have:
// the committed path and index are those of full scoring, and the
// committed score, like candidate 0's, is exact. An abandoned loser's
// scores entry is only a value ≥ the score it lost to.
func (sel *Selector) pick(s, t mesh.NodeID, stream uint64, snapshot []int64, sc *scratch) ([]mesh.Seg, Stats, int, []int64) {
	k := 1
	if snapshot != nil && sel.opt.KSample > 1 {
		k = sel.opt.KSample
	}
	if cap(sc.scores) < k {
		sc.scores = make([]int64, k)
	}
	scores := sc.scores[:k]
	// The chain is a function of (s, t) alone: resolve it once and let
	// the k candidates differ only in their randomness streams.
	var ch chainRef
	if s != t {
		ch = sel.chainFor(s, t, sc)
	}
	if k == 1 {
		var st Stats
		sc.segs2, st = sel.selectRuns(s, t, stream, ch, sc.segs2, sc)
		scores[0] = 0
		return sc.segs2, st, 0, scores
	}
	// Candidate race on two alternating run buffers: the incumbent
	// holds one, each challenger is built in the other and scored over
	// its final runs, and a win just swaps the buffer roles. Losing
	// candidates therefore never allocate; only the committed path pays
	// the caller's copy.
	bufBest, bufCand := sc.segs2, sc.segs3
	bufBest, bestStats := sel.selectRuns(s, t, stream, ch, bufBest, sc)
	scores[0] = metrics.SegPathMaxLoad(sel.m, snapshot, mesh.SegPath{Start: s, Segs: bufBest})
	bestIdx := 0
	totalBits := bestStats.RandomBits
	for j := 1; j < k; j++ {
		var st Stats
		bufCand, st = sel.selectRuns(s, t, KSampleStream(stream, j), ch, bufCand, sc)
		totalBits += st.RandomBits
		scores[j] = metrics.SegPathMaxLoadLimit(sel.m, snapshot, mesh.SegPath{Start: s, Segs: bufCand}, scores[bestIdx])
		if scores[j] < scores[bestIdx] {
			bestStats, bestIdx = st, j
			bufBest, bufCand = bufCand, bufBest
		}
	}
	sc.segs2, sc.segs3 = bufBest, bufCand
	bestStats.RandomBits = totalBits
	return bufBest, bestStats, bestIdx, scores
}

// KSegPath is the single-packet k-sample entry point: it draws the
// packet's k candidates, scores them against snapshot and returns the
// committed path with its candidate index plus the packet's sampling
// stats (for folding into service counters). With KSample ≤ 1 or a nil
// snapshot the path is exactly SegPath(s, t, stream), counted as one
// candidate.
func (sel *Selector) KSegPath(s, t mesh.NodeID, stream uint64, snapshot []int64) (mesh.SegPath, int, KStats) {
	sc := sel.getScratch()
	runs, _, committed, scores := sel.pick(s, t, stream, snapshot, sc)
	sp := mesh.SegPath{Start: s, Segs: segCopy(nil, runs)}
	var ks KStats
	ks.add(len(scores), committed, scores[committed], scores[0])
	sel.putScratch(sc)
	return sp, committed, ks
}

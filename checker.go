package obliviousmesh

import (
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/invariant"
)

// Paper-conformance checking (see internal/invariant and DESIGN.md §8).
type (
	// Checker machine-checks every selected path against the paper's
	// guarantees — path validity, stretch bound (Theorem 3.4 /
	// Theorem 4.2), waypoint membership and bitonic chain shape
	// (Lemmas 3.1–3.3), and the Lemma 5.4 random-bit budget — and
	// records a replayable Violation for each failure.
	Checker = invariant.Engine
	// Violation is one failed invariant check with its paper reference
	// and replay witness (seed, stream, source, target).
	Violation = invariant.Violation
)

// NewChecker builds a conformance checker for paths selected by r. Use
// it directly (CheckPath, CheckProblem), attach it to a batch run with
// SelectAllChecked, or attach it to a Session with
// s.Observe(ck.SessionObserver()).
func NewChecker(r *Router) *Checker {
	return invariant.New(r)
}

// SelectAllChecked routes a whole problem with algorithm H across all
// CPUs while ck re-checks every selected path against the paper's
// invariants during the same pass. The paths are bit-for-bit identical
// to SelectAll's; inspect ck.Err() or ck.Violations() afterwards.
func SelectAllChecked(r *Router, pairs []Pair, ck *Checker) []Path {
	paths := make([]Path, len(pairs))
	r.Select(core.Request{Pairs: pairs, Paths: paths, Hooks: core.Hooks{Path: ck.PathObserver()}})
	return paths
}

// SelectAllSegChecked is SelectAllChecked in the run-length
// representation: the segment-native engine selects, and ck verifies
// every delivered run set against a re-derived trace (segpath-valid
// and seg-agreement on top of the standard suite) without expanding
// it. Expanding the results yields exactly SelectAll's paths.
func SelectAllSegChecked(r *Router, pairs []Pair, ck *Checker) []SegPath {
	sps := make([]SegPath, len(pairs))
	r.Select(core.Request{Pairs: pairs, Segs: sps, Hooks: core.Hooks{Seg: ck.SegPathObserver()}})
	return sps
}

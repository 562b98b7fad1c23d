package obliviousmesh

import "obliviousmesh/internal/invariant"

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
// it directly (CheckPath, CheckProblem), attach it to a batch run as a
// Router.Select hook (SelectHooks{Path: ck.PathObserver()} or
// SelectHooks{Seg: ck.SegPathObserver()}), or attach it to a Session
// with s.Observe(ck.SessionObserver()).
func NewChecker(r *Router) *Checker {
	return invariant.New(r)
}

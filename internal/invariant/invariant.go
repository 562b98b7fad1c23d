// Package invariant machine-checks the paper's guarantees on every
// selected path. The paper proves its properties as theorems — stretch
// at most 64 in two dimensions (Theorem 3.4), bitonic chains of
// regular submeshes through a bridge (Lemmas 3.1–3.3), O(d·log(D·√d))
// random bits per packet under the §5.3 reuse scheme (Lemma 5.4) — but
// a silent regression in the selector or the decomposition would only
// surface as gradually worse metrics. This package turns each
// guarantee into a named Check over a selected path plus its full
// routing context (source, target, geometry, submesh chain, consumed
// random bits), so a violation is reported with the violating
// theorem's name and a replayable (seed, stream, s, t) witness.
//
// The Engine re-derives the authoritative decision trace for every
// checked packet via core.Explain — the same chain and randomness as
// the engine that produced the path, with hop-level cycle removal in
// place of the engines' loop erasure on runs — and verifies both the
// trace's internal structure and the delivered path against it. It attaches to the hot
// path as an optional observer (core.Hooks.Path for batch selection,
// Session.Observe for online routing) and costs nothing when not
// attached.
package invariant

import (
	"fmt"
	"strings"
	"sync"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
)

// Violation is one failed invariant check, carrying everything needed
// to replay it: the check and its paper reference, the topology, the
// selector's master seed, and the packet's (stream, s, t).
type Violation struct {
	Check  string // check name, e.g. "stretch-bound"
	Ref    string // paper reference, e.g. "Theorem 3.4"
	Mesh   string // topology, e.g. "mesh 32x32"
	Seed   uint64 // selector master seed
	Stream uint64 // packet randomness stream
	S, T   mesh.NodeID
	Detail string // what went wrong
}

// String renders the violation with its replay witness.
func (v Violation) String() string {
	return fmt.Sprintf("%s (%s): packet %d->%d stream %d on %s seed %d: %s",
		v.Check, v.Ref, v.S, v.T, v.Stream, v.Mesh, v.Seed, v.Detail)
}

// Replay returns a meshroute invocation that reselects the violating
// path (stream 0 replay is exact for the single-pair mode, which
// always uses stream 0; for other streams the witness tuple in the
// violation itself is the replayable artifact).
func (v Violation) Replay(m *mesh.Mesh) string {
	var b strings.Builder
	fmt.Fprintf(&b, "meshroute -d %d -side %d", m.Dim(), m.Side(0))
	if m.Wrap() {
		b.WriteString(" -torus")
	}
	fmt.Fprintf(&b, " -seed %d -check -pair \"%s:%s\"",
		v.Seed, coordList(m.CoordOf(v.S)), coordList(m.CoordOf(v.T)))
	return b.String()
}

// coordList formats a coordinate as the bare "x,y,..." form the
// meshroute -pair flag parses.
func coordList(c mesh.Coord) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}

// Context is the routing context one packet's checks run against. The
// Trace is re-derived from (seed, stream, s, t) by the engine and is
// authoritative by construction; Delivered is the path the caller
// actually observed (identical to Trace.Path unless something between
// selection and delivery corrupted it).
type Context struct {
	S, T      mesh.NodeID
	Stream    uint64
	Delivered mesh.Path
	Trace     core.Trace
	Dist      int // shortest-path distance between S and T
}

// Check is one named, paper-referenced invariant. Fn returns nil when
// the invariant holds and a descriptive error otherwise.
type Check struct {
	Name string
	Ref  string
	Fn   func(e *Engine, ctx *Context) error
}

// DefaultChecks returns the full paper-conformance suite, in the order
// checks build on one another (walk validity before structure before
// accounting).
func DefaultChecks() []Check {
	return []Check{
		{Name: "path-valid", Ref: "§2, Lemma 3.8", Fn: checkPathValid},
		{Name: "trace-agreement", Ref: "§3.3 obliviousness", Fn: checkTraceAgreement},
		{Name: "waypoint-membership", Ref: "Lemma 3.1, §3.3", Fn: checkWaypoints},
		{Name: "chain-shape", Ref: "Lemma 3.2", Fn: checkChainShape},
		{Name: "stretch-bound", Ref: "Theorem 3.4 / Theorem 4.2", Fn: checkStretch},
		{Name: "bit-budget", Ref: "Lemma 5.4", Fn: checkBitBudget},
	}
}

// Engine runs a check suite against paths selected by one core
// selector. All methods are safe for concurrent use: CheckPath
// re-derives traces with private scratch buffers, and the violation
// record is mutex-guarded. Construct with New.
type Engine struct {
	sel    *core.Selector
	m      *mesh.Mesh
	dc     *decomp.Decomposition
	opt    core.Options
	checks []Check
	// slack relaxes the stretch envelope for meshes embedded into an
	// enclosing power-of-two grid, where the paper's constants grow
	// near the clipped boundary (see decomp.New).
	slack float64

	mu      sync.Mutex
	viols   []Violation
	dropped int
	checked uint64
	limit   int
}

// New builds an engine with the default check suite for paths selected
// by sel. At most limit violations are retained verbatim (the rest are
// counted); limit ≤ 0 means the default of 64.
func New(sel *core.Selector) *Engine {
	m := sel.Mesh()
	slack := 1.0
	if _, pow2 := m.IsSquarePow2(); !pow2 {
		slack = 2
	}
	return &Engine{
		sel:    sel,
		m:      m,
		dc:     sel.Decomposition(),
		opt:    sel.Options(),
		checks: DefaultChecks(),
		slack:  slack,
		limit:  64,
	}
}

// WithChecks replaces the engine's check suite (for ablation tests and
// custom gates) and returns the engine.
func (e *Engine) WithChecks(checks []Check) *Engine {
	e.checks = checks
	return e
}

// Selector returns the engine's selector.
func (e *Engine) Selector() *core.Selector { return e.sel }

// CheckPath re-derives the decision trace for (s, t, stream), runs
// every check against it and the delivered path, records any
// violations, and returns them. delivered may be nil to check the
// selection in isolation (the trace's own path then stands in).
func (e *Engine) CheckPath(s, t mesh.NodeID, stream uint64, delivered mesh.Path) []Violation {
	tr := e.sel.Explain(s, t, stream)
	if delivered == nil {
		delivered = tr.Path
	}
	ctx := &Context{
		S: s, T: t, Stream: stream,
		Delivered: delivered,
		Trace:     tr,
		Dist:      e.m.Dist(s, t),
	}
	var out []Violation
	for _, c := range e.checks {
		if err := c.Fn(e, ctx); err != nil {
			out = append(out, Violation{
				Check: c.Name, Ref: c.Ref,
				Mesh: e.m.String(), Seed: e.opt.Seed,
				Stream: stream, S: s, T: t,
				Detail: err.Error(),
			})
		}
	}
	e.record(out)
	return out
}

// CheckProblem selects and checks every pair of a routing problem
// (packet i on stream i, exactly like SelectAll) and returns the
// number of violations found.
func (e *Engine) CheckProblem(pairs []mesh.Pair) int {
	n := 0
	for i, pr := range pairs {
		n += len(e.CheckPath(pr.S, pr.T, uint64(i), nil))
	}
	return n
}

// CheckLiveAgreement verifies that a live edge-load tracker agrees
// exactly with a batch recount of the given paths — the fused
// online accounting must be indistinguishable from the offline
// Evaluate pass (DESIGN.md §7). Records and returns the violations.
func (e *Engine) CheckLiveAgreement(live *metrics.LiveLoads, paths []mesh.Path) []Violation {
	batch := metrics.EdgeLoads(e.m, paths)
	snap := live.Snapshot()
	var out []Violation
	for eid := range batch {
		if batch[eid] != snap[eid] {
			out = append(out, Violation{
				Check: "live-agreement", Ref: "DESIGN §7 (streaming accounting)",
				Mesh: e.m.String(), Seed: e.opt.Seed,
				Detail: fmt.Sprintf("edge %s: live load %d != batch recount %d",
					e.m.EdgeString(mesh.EdgeID(eid)), snap[eid], batch[eid]),
			})
			if len(out) >= 8 {
				out = append(out, Violation{
					Check: "live-agreement", Ref: "DESIGN §7 (streaming accounting)",
					Mesh: e.m.String(), Seed: e.opt.Seed,
					Detail: "further edge mismatches elided",
				})
				break
			}
		}
	}
	e.record(out)
	return out
}

// PathObserver adapts the engine to the core batch-selection hook:
// attach as core.Hooks.Path of a hop-form core.Request.
func (e *Engine) PathObserver() core.PathObserver {
	return func(packet int, pr mesh.Pair, p mesh.Path, _ core.Stats) {
		e.CheckPath(pr.S, pr.T, uint64(packet), p)
	}
}

// SessionObserver adapts the engine to the Session.Observe hook, where
// the stream id is the session's arrival-order counter.
func (e *Engine) SessionObserver() func(stream uint64, src, dst mesh.NodeID, p mesh.Path) {
	return func(stream uint64, src, dst mesh.NodeID, p mesh.Path) {
		e.CheckPath(src, dst, stream, p)
	}
}

// record appends violations under the limit and bumps the counters.
func (e *Engine) record(vs []Violation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checked++
	for _, v := range vs {
		if len(e.viols) < e.limit {
			e.viols = append(e.viols, v)
		} else {
			e.dropped++
		}
	}
}

// Violations returns a copy of the recorded violations (capped at the
// engine's retention limit; Count includes the overflow).
func (e *Engine) Violations() []Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Violation(nil), e.viols...)
}

// Count returns the total number of violations observed, including any
// beyond the retention limit.
func (e *Engine) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.viols) + e.dropped
}

// Checked returns how many check invocations (packets or batch-level
// audits) the engine has run.
func (e *Engine) Checked() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checked
}

// Reset clears the violation record and counters.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.viols, e.dropped, e.checked = nil, 0, 0
}

// Err returns nil when no violation has been observed, and an error
// naming the first violation (and the total count) otherwise.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.viols) == 0 && e.dropped == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violations (first: %s)",
		len(e.viols)+e.dropped, e.viols[0])
}

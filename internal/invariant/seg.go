package invariant

import (
	"fmt"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
)

// Segment-level conformance: the run-length representation must carry
// exactly the paths the paper's construction selects. CheckSegPath
// re-derives one decision trace (the same single Explain the hop-level
// CheckPath pays) and runs the standard suite against it, plus two
// checks on the delivered segments themselves — validity of the runs
// and agreement with the trace's own run form — neither of which ever
// expands the delivered path.

// CheckSegPath re-derives the decision trace for (s, t, stream), runs
// the engine's check suite against it, and additionally verifies the
// delivered run-length path: every run stays on the mesh with the
// packet's endpoints ("segpath-valid") and the segments equal the
// trace's canonical run form ("seg-agreement"). delivered.Start < 0
// checks the selection in isolation, like a nil path in CheckPath.
func (e *Engine) CheckSegPath(s, t mesh.NodeID, stream uint64, delivered mesh.SegPath) []Violation {
	tr := e.sel.Explain(s, t, stream)
	if delivered.Start < 0 {
		delivered = tr.Seg
	}
	ctx := &Context{
		S: s, T: t, Stream: stream,
		Delivered: tr.Path,
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
	for _, c := range []struct {
		name, ref string
		fn        func() error
	}{
		{"segpath-valid", "§2 (run-length form)", func() error {
			return e.m.ValidateSeg(delivered, s, t)
		}},
		{"seg-agreement", "§3.3 obliviousness", func() error {
			return segsEqual(delivered, tr.Seg)
		}},
	} {
		if err := c.fn(); err != nil {
			out = append(out, Violation{
				Check: c.name, Ref: c.ref,
				Mesh: e.m.String(), Seed: e.opt.Seed,
				Stream: stream, S: s, T: t,
				Detail: err.Error(),
			})
		}
	}
	e.record(out)
	return out
}

// segsEqual reports whether a delivered run-length path is identical,
// run for run, to the re-derived one.
func segsEqual(got, want mesh.SegPath) error {
	if got.Start != want.Start {
		return fmt.Errorf("delivered segments start at %d, re-derived selection at %d", got.Start, want.Start)
	}
	if len(got.Segs) != len(want.Segs) {
		return fmt.Errorf("delivered path has %d segments, re-derived selection %d", len(got.Segs), len(want.Segs))
	}
	for i := range got.Segs {
		if got.Segs[i] != want.Segs[i] {
			return fmt.Errorf("segment %d is (dim %d, run %d), re-derived selection has (dim %d, run %d)",
				i, got.Segs[i].Dim, got.Segs[i].Run, want.Segs[i].Dim, want.Segs[i].Run)
		}
	}
	return nil
}

// SegPathObserver adapts the engine to the run-form batch-selection
// hook: attach as core.Hooks.Seg.
func (e *Engine) SegPathObserver() core.SegObserver {
	return func(packet int, pr mesh.Pair, sp mesh.SegPath, _ core.Stats) {
		e.CheckSegPath(pr.S, pr.T, uint64(packet), sp)
	}
}

// KSampleObserver adapts the engine to the k-sample hook: attach as
// core.Hooks.Cand. Each committed path is checked under its
// candidate's stream, core.KSampleStream(packet, committed), which is
// the stream a replay must use.
func (e *Engine) KSampleObserver() core.KSampleObserver {
	return func(packet int, pr mesh.Pair, sp mesh.SegPath, _ core.Stats, committed int, _ []int64) {
		e.CheckSegPath(pr.S, pr.T, core.KSampleStream(uint64(packet), committed), sp)
	}
}

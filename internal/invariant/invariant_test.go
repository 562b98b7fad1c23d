package invariant

import (
	"errors"
	"strings"
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/workload"
)

func newEngine(t testing.TB, m *mesh.Mesh, opt core.Options) *Engine {
	t.Helper()
	sel, err := core.NewSelector(m, opt)
	if err != nil {
		t.Fatalf("NewSelector: %v", err)
	}
	return New(sel)
}

// The property harness: every path selected for every workload on
// every topology/option combination must pass the full check suite.
// This is the executable form of the acceptance criterion "every path
// passes all invariant checks across 2-D/3-D/4-D meshes and
// permutation + adversarial workloads".
func TestPropertyHarnessAllClean(t *testing.T) {
	type config struct {
		name string
		m    *mesh.Mesh
		opt  core.Options
	}
	configs := []config{
		{"2d-16", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 1}},
		{"2d-16-general", mesh.MustSquare(2, 16), core.Options{Variant: core.VariantGeneral, Seed: 2}},
		{"2d-16-torus", mesh.MustSquareTorus(2, 16), core.Options{Variant: core.Variant2D, Seed: 3}},
		{"3d-8", mesh.MustSquare(3, 8), core.Options{Variant: core.VariantGeneral, Seed: 4}},
		{"4d-4", mesh.MustSquare(4, 4), core.Options{Variant: core.VariantGeneral, Seed: 5}},
		{"2d-12-clipped", mustMesh(t, 12, 12), core.Options{Variant: core.Variant2D, Seed: 6}},
		{"2d-16-fixed-order", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 7, FixedDimOrder: true}},
		{"2d-16-fresh-bits", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 8, FreshBits: true}},
		{"2d-16-keep-cycles", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 9, KeepCycles: true}},
		{"2d-16-no-bridges", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 10, DisableBridges: true}},
		{"2d-16-half-bridge", mesh.MustSquare(2, 16), core.Options{Variant: core.VariantGeneral, Seed: 11, BridgeFactor: 0.5}},
		{"3d-8-torus-general", mesh.MustSquareTorus(3, 8), core.Options{Variant: core.VariantGeneral, Seed: 12}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			e := newEngine(t, cfg.m, cfg.opt)
			for _, prob := range harnessWorkloads(t, e) {
				before := e.Count()
				e.CheckProblem(prob.Pairs)
				if n := e.Count() - before; n > 0 {
					t.Errorf("workload %s: %d violations, first: %s",
						prob.Name, n, e.Violations()[before])
				}
			}
		})
	}
}

// harnessWorkloads builds the workload battery for one engine:
// permutation traffic, hot-spot traffic, local traffic, and the
// adversarial Π_A built against the engine's own selector.
func harnessWorkloads(t *testing.T, e *Engine) []workload.Problem {
	t.Helper()
	m := e.Selector().Mesh()
	probs := []workload.Problem{
		workload.RandomPermutation(m, 42),
		workload.Transpose(m),
		workload.HotSpot(m, m.Size()/2, 3, 43),
		workload.LocalRandom(m, m.Size()/2, 3, 44),
	}
	adv, _, err := workload.Adversarial(m, 2, e.Selector().Path, 3)
	if err != nil {
		t.Fatalf("Adversarial: %v", err)
	}
	return append(probs, adv)
}

func mustMesh(t testing.TB, dims ...int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.New(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Degenerate packets (s == t) must pass all checks.
func TestDegeneratePacket(t *testing.T) {
	e := newEngine(t, mesh.MustSquare(2, 8), core.Options{Variant: core.Variant2D, Seed: 1})
	if vs := e.CheckPath(5, 5, 0, nil); len(vs) != 0 {
		t.Fatalf("s == t produced violations: %v", vs)
	}
}

// The batch hook must check every packet of a fused selection pass.
func TestPathObserverHook(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 1})
	pairs := workload.RandomPermutation(m, 7).Pairs
	paths := make([]mesh.Path, len(pairs))
	e.Selector().Select(core.Request{Pairs: pairs, Workers: 1, Paths: paths, Hooks: core.Hooks{Path: e.PathObserver()}})
	if got := e.Checked(); got != uint64(len(pairs)) {
		t.Fatalf("checked %d packets, want %d", got, len(pairs))
	}
	if err := e.Err(); err != nil {
		t.Fatalf("violations from clean batch: %v", err)
	}
	// Same thing through the parallel engine; the observer must be
	// race-clean (run under -race by make verify).
	e.Reset()
	e.Selector().Select(core.Request{Pairs: pairs, Workers: 4, Paths: paths, Hooks: core.Hooks{Path: e.PathObserver()}})
	if got := e.Checked(); got != uint64(len(pairs)) {
		t.Fatalf("parallel: checked %d packets, want %d", got, len(pairs))
	}
	if err := e.Err(); err != nil {
		t.Fatalf("parallel: violations from clean batch: %v", err)
	}
}

// Live-vs-batch agreement: the fused tracker must match an offline
// recount, and a corrupted tracker must be flagged.
func TestCheckLiveAgreement(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 1})
	pairs := workload.RandomPermutation(m, 7).Pairs
	paths := make([]mesh.Path, len(pairs))
	live := metrics.NewLiveLoads(m, 4)
	e.Selector().Select(core.Request{Pairs: pairs, Paths: paths, Hooks: core.Hooks{Edge: func(pkt int, ed mesh.EdgeID) {
		live.Add(uint64(pkt), ed)
	}}})
	if vs := e.CheckLiveAgreement(live, paths); len(vs) != 0 {
		t.Fatalf("clean tracker flagged: %v", vs)
	}
	// Phantom crossing: the tracker now disagrees with the recount.
	live.Add(0, 0)
	vs := e.CheckLiveAgreement(live, paths)
	if len(vs) == 0 {
		t.Fatal("corrupted tracker not flagged")
	}
	if vs[0].Check != "live-agreement" {
		t.Fatalf("wrong check name %q", vs[0].Check)
	}
}

// checkContext re-derives a known-good context for doctoring.
func checkContext(t *testing.T, e *Engine) *Context {
	t.Helper()
	m := e.Selector().Mesh()
	s, d := mesh.NodeID(0), mesh.NodeID(m.Size()-1)
	tr := e.Selector().Explain(s, d, 3)
	return &Context{S: s, T: d, Stream: 3, Delivered: tr.Path, Trace: tr, Dist: m.Dist(s, d)}
}

// Mutation tests: each check must catch its own class of corruption
// and report it under the right paper reference. This is the
// acceptance criterion "an intentionally corrupted path is reported
// with the violating theorem name and a replayable seed".
func TestMutationsAreCaught(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 21})

	mutations := []struct {
		name    string
		check   string
		wantRef string
		mutate  func(ctx *Context)
	}{
		{
			name: "truncated path", check: "path-valid", wantRef: "Lemma 3.8",
			mutate: func(ctx *Context) { ctx.Delivered = ctx.Delivered[:len(ctx.Delivered)-1] },
		},
		{
			name: "teleport hop", check: "path-valid", wantRef: "Lemma 3.8",
			mutate: func(ctx *Context) {
				p := append(mesh.Path(nil), ctx.Delivered...)
				p[len(p)/2] = p[len(p)/2] + mesh.NodeID(2) // skip a row: not a unit step
				ctx.Delivered = p
			},
		},
		{
			name: "revisited node", check: "path-valid", wantRef: "Lemma 3.8",
			mutate: func(ctx *Context) {
				p := ctx.Delivered
				stutter := append(append(mesh.Path(nil), p[:2]...), p[0], p[1])
				ctx.Delivered = append(stutter, p[2:]...)
			},
		},
		{
			name: "swapped delivery", check: "trace-agreement", wantRef: "§3.3",
			mutate: func(ctx *Context) {
				// A different stream's path for the same pair: valid walk,
				// but not the one obliviousness dictates for stream 3.
				other := e.Selector().Path(ctx.S, ctx.T, ctx.Stream+1)
				ctx.Delivered = other
			},
		},
		{
			name: "waypoint outside submesh", check: "waypoint-membership", wantRef: "Lemma 3.1",
			mutate: func(ctx *Context) {
				wp := append([]mesh.NodeID(nil), ctx.Trace.Waypoints...)
				wp[1] = ctx.T // the target is far outside the source-side leaf's parent
				ctx.Trace.Waypoints = wp
			},
		},
		{
			name: "broken chain ascent", check: "chain-shape", wantRef: "Lemma 3.2",
			mutate: func(ctx *Context) {
				ch := append([]mesh.Box(nil), ctx.Trace.Chain...)
				ch[0], ch[len(ch)-1] = ch[len(ch)-1], ch[0]
				ctx.Trace.Chain = ch
			},
		},
		{
			name: "inflated raw length", check: "stretch-bound", wantRef: "Theorem 3.4",
			mutate: func(ctx *Context) { ctx.Trace.Stats.RawLen = 100 * ctx.Dist * Envelope2D },
		},
		{
			name: "runaway randomness", check: "bit-budget", wantRef: "Lemma 5.4",
			mutate: func(ctx *Context) { ctx.Trace.Stats.RandomBits = 1 << 20 },
		},
	}

	for _, mu := range mutations {
		mu := mu
		t.Run(mu.name, func(t *testing.T) {
			ctx := checkContext(t, e)
			mu.mutate(ctx)
			var hit *Violation
			for _, c := range DefaultChecks() {
				if err := c.Fn(e, ctx); err != nil && c.Name == mu.check {
					hit = &Violation{
						Check: c.Name, Ref: c.Ref, Mesh: m.String(),
						Seed: 21, Stream: ctx.Stream, S: ctx.S, T: ctx.T,
						Detail: err.Error(),
					}
				}
			}
			if hit == nil {
				t.Fatalf("mutation %q not caught by check %q", mu.name, mu.check)
			}
			if !strings.Contains(hit.Ref, mu.wantRef) {
				t.Fatalf("check %q reported under %q, want reference to %q", mu.check, hit.Ref, mu.wantRef)
			}
			// The violation must carry a replayable witness.
			s := hit.String()
			for _, want := range []string{"seed 21", "stream 3", mu.check} {
				if !strings.Contains(s, want) {
					t.Fatalf("violation %q missing %q", s, want)
				}
			}
		})
	}
}

// Corruption through the public CheckPath entry point: a doctored
// delivered path must come back as recorded violations.
func TestCheckPathFlagsCorruptedDelivery(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 5})
	good := e.Selector().Path(0, mesh.NodeID(m.Size()-1), 2)
	bad := append(mesh.Path(nil), good[:len(good)-1]...)
	vs := e.CheckPath(0, mesh.NodeID(m.Size()-1), 2, bad)
	if len(vs) == 0 {
		t.Fatal("corrupted delivery not flagged")
	}
	names := make(map[string]bool)
	for _, v := range vs {
		names[v.Check] = true
	}
	if !names["path-valid"] || !names["trace-agreement"] {
		t.Fatalf("expected path-valid and trace-agreement violations, got %v", vs)
	}
	if e.Count() != len(vs) {
		t.Fatalf("Count %d != returned %d", e.Count(), len(vs))
	}
	if err := e.Err(); err == nil {
		t.Fatal("Err() nil after violations")
	}
}

// Violation.Replay must produce a runnable meshroute invocation.
func TestViolationReplayString(t *testing.T) {
	m := mesh.MustSquareTorus(2, 16)
	v := Violation{
		Check: "stretch-bound", Ref: "Theorem 3.4", Mesh: m.String(),
		Seed: 77, Stream: 0, S: 0, T: mesh.NodeID(m.Size() - 1),
	}
	got := v.Replay(m)
	for _, want := range []string{"meshroute", "-d 2", "-side 16", "-torus", "-seed 77", "-check", `-pair "0,0:15,15"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("replay %q missing %q", got, want)
		}
	}
}

// Retention limit: violations beyond the cap are counted, not stored,
// and Reset clears everything.
func TestRetentionLimitAndReset(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 1})
	e.WithChecks([]Check{{
		Name: "always-fails", Ref: "none",
		Fn: func(*Engine, *Context) error { return errors.New("boom") },
	}})
	pairs := workload.RandomPermutation(m, 1).Pairs // 64 pairs on 8x8
	e.CheckProblem(pairs)
	e.CheckProblem(pairs)
	if got := e.Count(); got != 2*len(pairs) {
		t.Fatalf("Count %d, want %d", got, 2*len(pairs))
	}
	if got := len(e.Violations()); got != 64 {
		t.Fatalf("retained %d violations, want the 64 cap", got)
	}
	e.Reset()
	if e.Count() != 0 || e.Checked() != 0 || e.Err() != nil {
		t.Fatal("Reset did not clear the record")
	}
}

// The stretch envelope matches the paper's constants and is voided
// only by the documented ablations.
func TestStretchEnvelope(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	if b, ok := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 1}).StretchEnvelope(); !ok || b != 64 {
		t.Fatalf("2-D envelope = %v, %v; want 64, true", b, ok)
	}
	m3 := mesh.MustSquare(3, 8)
	if b, ok := newEngine(t, m3, core.Options{Variant: core.VariantGeneral, Seed: 1}).StretchEnvelope(); !ok || b != 50*9 {
		t.Fatalf("3-D envelope = %v, %v; want 450, true", b, ok)
	}
	if _, ok := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 1, DisableBridges: true}).StretchEnvelope(); ok {
		t.Fatal("DisableBridges must void the stretch bound")
	}
	if _, ok := newEngine(t, m, core.Options{Variant: core.VariantGeneral, Seed: 1, BridgeFactor: 0.5}).StretchEnvelope(); ok {
		t.Fatal("non-paper BridgeFactor must void the stretch bound")
	}
	// Clipped embedding doubles the envelope.
	if b, ok := newEngine(t, mustMesh(t, 12, 12), core.Options{Variant: core.Variant2D, Seed: 1}).StretchEnvelope(); !ok || b != 128 {
		t.Fatalf("clipped 2-D envelope = %v, %v; want 128, true", b, ok)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

package invariant

import (
	"strings"
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// Every segment path the selector produces must pass the extended
// suite — the standard checks plus segpath-valid and seg-agreement —
// whether checked directly or attached as a batch observer.
func TestCheckSegPathAllClean(t *testing.T) {
	configs := []struct {
		name string
		m    *mesh.Mesh
		opt  core.Options
	}{
		{"2d-16", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 1}},
		{"2d-16-torus", mesh.MustSquareTorus(2, 16), core.Options{Variant: core.Variant2D, Seed: 3}},
		{"3d-8", mesh.MustSquare(3, 8), core.Options{Variant: core.VariantGeneral, Seed: 4}},
		{"2d-16-keep-cycles", mesh.MustSquare(2, 16), core.Options{Variant: core.Variant2D, Seed: 9, KeepCycles: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			e := newEngine(t, cfg.m, cfg.opt)
			prob := workload.RandomPermutation(cfg.m, 42)
			sps := make([]mesh.SegPath, len(prob.Pairs))
			e.Selector().Select(core.Request{Pairs: prob.Pairs, Segs: sps,
				Hooks: core.Hooks{Seg: e.SegPathObserver()}})
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			if e.Checked() != uint64(len(prob.Pairs)) {
				t.Fatalf("checked %d of %d packets", e.Checked(), len(prob.Pairs))
			}
		})
	}
}

// A corrupted delivery must trip exactly the segment checks: a wrong
// run fails segpath-valid (the endpoints no longer match) and
// seg-agreement, while the underlying selection stays clean.
func TestCheckSegPathCatchesCorruption(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	e := newEngine(t, m, core.Options{Variant: core.Variant2D, Seed: 5})
	s, d := mesh.NodeID(0), mesh.NodeID(m.Size()-1)
	sp := e.Selector().SegPath(s, d, 0)
	if vs := e.CheckSegPath(s, d, 0, sp); len(vs) != 0 {
		t.Fatalf("clean delivery flagged: %v", vs)
	}

	bad := sp.Clone()
	bad.Segs[0].Run++
	vs := e.CheckSegPath(s, d, 0, bad)
	if len(vs) == 0 {
		t.Fatal("corrupted delivery passed")
	}
	names := make(map[string]bool)
	for _, v := range vs {
		names[v.Check] = true
		if !strings.Contains(v.String(), "seg") {
			t.Fatalf("violation from the non-seg suite: %s", v)
		}
	}
	if !names["seg-agreement"] {
		t.Fatalf("seg-agreement did not fire: %v", vs)
	}

	// A delivery that is a valid walk but not the selected one fails
	// only seg-agreement.
	swapped := sp.Clone()
	if r := swapped.Segs[0].Run; len(swapped.Segs) >= 2 && (r >= 2 || r <= -2) {
		rev := mesh.SegPath{Start: sp.Start, Segs: []mesh.Seg{
			{Dim: swapped.Segs[0].Dim, Run: swapped.Segs[0].Run / 2},
			{Dim: swapped.Segs[0].Dim, Run: swapped.Segs[0].Run - swapped.Segs[0].Run/2},
		}}
		rev.Segs = append(rev.Segs, swapped.Segs[1:]...)
		vs = e.CheckSegPath(s, d, 0, rev)
		for _, v := range vs {
			if v.Check == "segpath-valid" {
				t.Fatalf("valid walk flagged invalid: %s", v)
			}
		}
		if len(vs) == 0 {
			t.Fatal("non-canonical delivery passed seg-agreement")
		}
	}

	// Start < 0 checks the selection in isolation and stays clean.
	if vs := e.CheckSegPath(s, d, 0, mesh.SegPath{Start: -1}); len(vs) != 0 {
		t.Fatalf("isolation check flagged: %v", vs)
	}
}

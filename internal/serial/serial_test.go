package serial

import (
	"bytes"
	"strings"
	"testing"

	"obliviousmesh/internal/baseline"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/workload"
)

func TestProblemRoundTrip(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	prob := workload.Transpose(m)
	var buf bytes.Buffer
	if err := SaveProblem(&buf, prob); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != prob.Name || back.N() != prob.N() {
		t.Fatalf("identity lost: %s/%d vs %s/%d", back.Name, back.N(), prob.Name, prob.N())
	}
	if back.M.String() != m.String() {
		t.Errorf("mesh %v != %v", back.M, m)
	}
	for i := range prob.Pairs {
		if back.Pairs[i] != prob.Pairs[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestProblemTorusRoundTrip(t *testing.T) {
	m := mesh.MustSquareTorus(2, 8)
	prob := workload.Tornado(m)
	var buf bytes.Buffer
	if err := SaveProblem(&buf, prob); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.M.Wrap() {
		t.Error("wrap flag lost")
	}
}

func TestLoadProblemRejectsBad(t *testing.T) {
	if _, err := LoadProblem(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	// Out-of-range pair.
	bad := `{"mesh":{"dims":[4,4]},"name":"x","pairs":[[0,99]]}`
	if _, err := LoadProblem(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range pair accepted")
	}
	// Invalid mesh.
	bad2 := `{"mesh":{"dims":[]},"name":"x","pairs":[]}`
	if _, err := LoadProblem(strings.NewReader(bad2)); err == nil {
		t.Error("empty dims accepted")
	}
}

func TestRunRoundTrip(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	prob := workload.RandomPermutation(m, 4)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 9})
	paths := baseline.SelectAll(baseline.Named{Label: "H", Sel: sel}, prob.Pairs)
	dc := decomp.MustNew(m, decomp.Mode2D)
	rep := metrics.Evaluate(dc, prob.Pairs, paths)
	run := Run{Problem: prob, Algorithm: "H", Seed: 9, Paths: paths, Report: &rep}

	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "H" || back.Seed != 9 {
		t.Errorf("metadata lost: %+v", back)
	}
	if back.Report == nil || back.Report.Congestion != rep.Congestion {
		t.Errorf("report lost")
	}
	if len(back.Paths) != len(paths) {
		t.Fatalf("%d paths", len(back.Paths))
	}
	// Re-evaluating the loaded run reproduces the report exactly.
	rep2 := metrics.Evaluate(dc, back.Problem.Pairs, back.Paths)
	if rep2 != rep {
		t.Errorf("reloaded evaluation %+v != %+v", rep2, rep)
	}
}

func TestLoadRunValidatesPaths(t *testing.T) {
	// A run whose path teleports must be rejected.
	bad := `{
 "mesh": {"dims": [4,4]},
 "workload": "x", "algorithm": "y", "seed": 1,
 "pairs": [[0, 15]],
 "paths": [[0, 15]]
}`
	if _, err := LoadRun(strings.NewReader(bad)); err == nil {
		t.Error("teleporting path accepted")
	}
	// Path/pair count mismatch.
	bad2 := `{
 "mesh": {"dims": [4,4]},
 "workload": "x", "algorithm": "y", "seed": 1,
 "pairs": [[0, 1]],
 "paths": []
}`
	if _, err := LoadRun(strings.NewReader(bad2)); err == nil {
		t.Error("count mismatch accepted")
	}
	// Wrong endpoints.
	bad3 := `{
 "mesh": {"dims": [4,4]},
 "workload": "x", "algorithm": "y", "seed": 1,
 "pairs": [[0, 2]],
 "paths": [[0, 1]]
}`
	if _, err := LoadRun(strings.NewReader(bad3)); err == nil {
		t.Error("wrong-destination path accepted")
	}
}

func TestSpecBuild(t *testing.T) {
	m := mesh.MustNew(3, 5, 2)
	back, err := Spec(m).Build()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != m.String() || back.Size() != m.Size() {
		t.Errorf("spec round trip: %v vs %v", back, m)
	}
}

// TestMeshSpecEqual covers the membership fingerprint comparison.
func TestMeshSpecEqual(t *testing.T) {
	a := MeshSpec{Dims: []int{8, 8}}
	cases := []struct {
		b    MeshSpec
		want bool
	}{
		{MeshSpec{Dims: []int{8, 8}}, true},
		{MeshSpec{Dims: []int{8, 8}, Wrap: true}, false},
		{MeshSpec{Dims: []int{8, 16}}, false},
		{MeshSpec{Dims: []int{8, 8, 8}}, false},
	}
	for _, c := range cases {
		if got := a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

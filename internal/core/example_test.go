package core_test

import (
	"fmt"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
)

// Selecting one oblivious path and inspecting its accounting.
func ExampleSelector_PathStats() {
	m := mesh.MustSquare(2, 64)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 42})
	s := m.Node(mesh.Coord{3, 5})
	t := m.Node(mesh.Coord{60, 12})

	path, stats := sel.PathStats(s, t, 0)
	fmt.Println("valid:", m.Validate(path, s, t) == nil)
	fmt.Println("stretch within Theorem 3.4:", float64(stats.RawLen)/float64(m.Dist(s, t)) <= 64)
	fmt.Println("used random bits:", stats.RandomBits > 0)
	// Output:
	// valid: true
	// stretch within Theorem 3.4: true
	// used random bits: true
}

// The Explain trace exposes every decision the algorithm makes.
func ExampleSelector_Explain() {
	m := mesh.MustSquare(2, 16)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 7})
	tr := sel.Explain(m.Node(mesh.Coord{1, 1}), m.Node(mesh.Coord{14, 14}), 0)

	fmt.Println("chain boxes == waypoints:", len(tr.Chain) == len(tr.Waypoints))
	fmt.Println("bridge contains both endpoints:",
		tr.Bridge.Box.Contains(mesh.Coord{1, 1}) && tr.Bridge.Box.Contains(mesh.Coord{14, 14}))
	fmt.Println("segments connect consecutive waypoints:", len(tr.Segments) == len(tr.Waypoints)-1)
	// Output:
	// chain boxes == waypoints: true
	// bridge contains both endpoints: true
	// segments connect consecutive waypoints: true
}

// Routing a batch in parallel is bit-identical to sequential routing.
func ExampleSelector_Select() {
	m := mesh.MustSquare(2, 16)
	sel := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	pairs := []mesh.Pair{{S: 0, T: 255}, {S: 17, T: 200}, {S: 3, T: 3}}

	seq, _ := sel.SelectAll(pairs)
	par := make([]mesh.Path, len(pairs))
	sel.Select(core.Request{Pairs: pairs, Workers: 4, Paths: par})
	same := len(seq) == len(par)
	for i := range seq {
		if len(seq[i]) != len(par[i]) {
			same = false
		}
	}
	fmt.Println("identical:", same)
	// Output:
	// identical: true
}

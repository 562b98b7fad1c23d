package obliviousmesh_test

import (
	"fmt"
	"sync/atomic"

	obliviousmesh "obliviousmesh"
)

// The basic flow: build a mesh, build the router, select a path.
func Example() {
	m, _ := obliviousmesh.NewMesh(2, 64)
	r, _ := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 42})

	src := m.Node(obliviousmesh.Coord{3, 5})
	dst := m.Node(obliviousmesh.Coord{60, 12})
	path := r.Path(src, dst, 0)

	fmt.Println("distance:", m.Dist(src, dst))
	fmt.Println("valid:", m.Validate(path, src, dst) == nil)
	fmt.Println("within Theorem 3.4 bound:", m.Stretch(path) <= 64)
	// Output:
	// distance: 64
	// valid: true
	// within Theorem 3.4 bound: true
}

// Router.Select is the one batch entry point: here four workers route
// a shard of a larger batch (streams 100..) into a caller's slice with
// an edge hook, and match a whole-batch SelectAll at those positions.
func ExampleRouter_Select() {
	m, _ := obliviousmesh.NewMesh(2, 16)
	r, _ := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 7})
	pairs := obliviousmesh.RandomPermutation(m, 1).Pairs

	whole, _ := r.SelectAll(pairs)
	shard := make([]obliviousmesh.Path, len(pairs)-100)
	var edges atomic.Int64
	r.Select(obliviousmesh.SelectRequest{
		Pairs: pairs[100:], Base: 100, Workers: 4, Paths: shard,
		Hooks: obliviousmesh.SelectHooks{Edge: func(int, obliviousmesh.EdgeID) { edges.Add(1) }},
	})
	same, want := true, int64(0)
	for i, p := range shard {
		same = same && fmt.Sprint(p) == fmt.Sprint(whole[100+i])
		want += int64(p.Len())
	}
	fmt.Println("shard equals whole batch:", same)
	fmt.Println("hook saw every edge:", edges.Load() == want)
	// Output:
	// shard equals whole batch: true
	// hook saw every edge: true
}

// Routing a whole problem and measuring its quality.
func ExampleEvaluate() {
	m, _ := obliviousmesh.NewMesh(2, 16)
	r, _ := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 7})
	prob := obliviousmesh.Transpose(m)
	paths := obliviousmesh.SelectAll(obliviousmesh.Named("H", r), prob.Pairs)
	rep, _ := obliviousmesh.Evaluate(m, prob.Pairs, paths)

	fmt.Println("packets:", prob.N())
	fmt.Println("congestion at least the C* lower bound:", rep.Congestion >= rep.LowerBound)
	fmt.Println("stretch bounded:", rep.MaxStretch <= 64)
	// Output:
	// packets: 256
	// congestion at least the C* lower bound: true
	// stretch bounded: true
}

// The torus topology of the paper's proofs is fully supported: seam
// pairs (adjacent across the wrap) get constant-length paths.
func ExampleNewTorus() {
	tor, _ := obliviousmesh.NewTorus(2, 64)
	r, _ := obliviousmesh.NewRouter(tor, obliviousmesh.RouterOptions{Seed: 1})

	s := tor.Node(obliviousmesh.Coord{63, 32})
	d := tor.Node(obliviousmesh.Coord{0, 32})
	path := r.Path(s, d, 0)

	fmt.Println("torus distance:", tor.Dist(s, d))
	fmt.Println("path stays short:", path.Len() <= 64)
	// Output:
	// torus distance: 1
	// path stays short: true
}

// Simulating actual packet delivery under the synchronous model.
func ExampleSimulate() {
	m, _ := obliviousmesh.NewMesh(2, 16)
	r, _ := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 3})
	prob := obliviousmesh.RandomPermutation(m, 9)
	paths := obliviousmesh.SelectAll(obliviousmesh.Named("H", r), prob.Pairs)
	res := obliviousmesh.Simulate(m, paths)

	fmt.Println("all delivered:", res.Delivered == prob.N())
	fmt.Println("makespan at least the dilation:", res.Makespan >= res.Dilation)
	// Output:
	// all delivered: true
	// makespan at least the dilation: true
}

// The §5.1 adversarial construction: a problem that defeats any
// deterministic algorithm.
func ExampleAdversarial() {
	m, _ := obliviousmesh.NewMesh(2, 32)
	dimOrder := obliviousmesh.Baselines(m, 0)[0]
	prob, _, _ := obliviousmesh.Adversarial(m, 8, dimOrder.Path, 1)

	// Lemma 5.1: at least l/d packets pinned to one edge.
	fmt.Println("pinned packets at least l/d:", prob.N() >= 8/2)
	// Output:
	// pinned packets at least l/d: true
}

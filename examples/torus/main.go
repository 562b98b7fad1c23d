// Torus routing: the paper proves its key geometric lemmas "on the
// torus, for simplicity"; this library implements that topology for
// real. On the torus the translated submesh families wrap around, so
// Lemma 3.3 is exact (+2) and packets crossing the wrap seam —
// distance 1 on the torus, distance side-1 on the open mesh — get O(1)
// paths through wrapping bridges.
//
//	go run ./examples/torus
package main

import (
	"fmt"
	"log"

	obliviousmesh "obliviousmesh"
)

func main() {
	const side = 64
	tor, err := obliviousmesh.NewTorus(2, side)
	if err != nil {
		log.Fatal(err)
	}
	msh, err := obliviousmesh.NewMesh(2, side)
	if err != nil {
		log.Fatal(err)
	}

	rTor, _ := obliviousmesh.NewRouter(tor, obliviousmesh.RouterOptions{Seed: 1})
	rMsh, _ := obliviousmesh.NewRouter(msh, obliviousmesh.RouterOptions{Seed: 1})

	// The seam pair: neighbors on the torus, opposite edges of the mesh.
	s := tor.Node(obliviousmesh.Coord{side - 1, side / 2})
	d := tor.Node(obliviousmesh.Coord{0, side / 2})

	fmt.Printf("seam pair (%v -> %v) on side-%d topologies:\n",
		tor.CoordOf(s), tor.CoordOf(d), side)
	fmt.Printf("  torus distance: %d     mesh distance: %d\n",
		tor.Dist(s, d), msh.Dist(s, d))

	avg := func(r *obliviousmesh.Router, m *obliviousmesh.Mesh) float64 {
		sum := 0
		const trials = 50
		for i := 0; i < trials; i++ {
			sum += r.Path(s, d, uint64(i)).Len()
		}
		return float64(sum) / trials
	}
	fmt.Printf("  H path length:  %.1f (torus, wrap-aware bridges)\n", avg(rTor, tor))
	fmt.Printf("                  %.1f (open mesh — the wrap does not exist there)\n\n", avg(rMsh, msh))

	// Whole-problem comparison: tornado traffic is the torus-native
	// workload (every packet shifts halfway around the ring).
	for _, m := range []*obliviousmesh.Mesh{tor, msh} {
		r, _ := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: 2})
		prob := obliviousmesh.Tornado(m)
		paths, _ := r.SelectAll(prob.Pairs)
		rep, err := obliviousmesh.Evaluate(m, prob.Pairs, paths)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v  tornado: C=%d D=%d maxStretch=%.2f C/LB=%.2f\n",
			m, rep.Congestion, rep.Dilation, rep.MaxStretch,
			float64(rep.Congestion)/float64(rep.LowerBound))
	}

	fmt.Println(`
On the torus every tornado packet has wrap-aware distance side/2 and the
decomposition's wrapping families give every region the same full-size
bridges — no boundary effects, exactly the setting of the paper's proofs.`)
}

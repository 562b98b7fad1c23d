package core

import (
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// Allocation ceilings for the warm hot path. These are regression
// guards, not aspirations: `go test` fails if a change pushes the
// steady-state allocation count above them, instead of the regression
// landing silently and surfacing months later in a soak run.
//
// The warm steady state allocates only the caller-owned final path
// (one slice per packet) plus occasional map/slice growth inside the
// reused scratch; everything else — rng, chain, perm, waypoints,
// reservoirs, raw path — is served from the pooled scratch.
const (
	maxPathAllocs      = 3.0 // Selector.Path, warm, per call
	maxSelectAllPerPkt = 3.0 // hop-form Select, warm, per packet
	maxSegTablePerPkt  = 1.0 // run-form Select, default backend, per packet
)

func TestPathAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m := mesh.MustSquare(2, 32)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	s, d := mesh.NodeID(0), mesh.NodeID(m.Size()-1)
	// Warm the scratch pool and every growable buffer.
	for i := 0; i < 64; i++ {
		sink = sel.Path(s, d, uint64(i%8))
	}
	avg := testing.AllocsPerRun(200, func() {
		sink = sel.Path(s, d, 3)
	})
	if avg > maxPathAllocs {
		t.Errorf("Selector.Path allocates %.1f/op warm, budget %.1f", avg, maxPathAllocs)
	}
}

func TestSelectAllIntoAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m := mesh.MustSquare(2, 32)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	prob := workload.RandomPermutation(m, 3)
	paths := make([]mesh.Path, len(prob.Pairs))
	// Warm pass grows all scratch buffers.
	for i := 0; i < 3; i++ {
		sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Paths: paths})
	}
	avg := testing.AllocsPerRun(20, func() {
		sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Paths: paths})
	})
	perPkt := avg / float64(len(prob.Pairs))
	if perPkt > maxSelectAllPerPkt {
		t.Errorf("hop-form Select allocates %.2f/packet warm (%.0f/batch over %d packets), budget %.1f",
			perPkt, avg, len(prob.Pairs), maxSelectAllPerPkt)
	}
}

// TestSelectAllSegTableAllocsWarm pins the default backend's warm
// dispatch at ≤ 1 allocation per packet: the caller-owned Segs copy of
// each SegPath, which no engine without an arena can avoid. Chains
// assemble into the scratch's routetab.Buf, so nothing else is left
// to allocate.
func TestSelectAllSegTableAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m := mesh.MustSquare(2, 32)
	sel := MustNewSelector(m, Options{Variant: Variant2D, Seed: 1})
	prob := workload.RandomPermutation(m, 3)
	sps := make([]mesh.SegPath, len(prob.Pairs))
	// Warm pass grows the scratch buffers (chain, segs, reservoirs).
	for i := 0; i < 3; i++ {
		sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps})
	}
	avg := testing.AllocsPerRun(20, func() {
		sel.Select(Request{Pairs: prob.Pairs, Workers: 1, Segs: sps})
	})
	perPkt := avg / float64(len(prob.Pairs))
	if perPkt > maxSegTablePerPkt {
		t.Errorf("default-backend run-form Select allocates %.2f/packet warm (%.0f/batch over %d packets), budget %.1f",
			perPkt, avg, len(prob.Pairs), maxSegTablePerPkt)
	}
}

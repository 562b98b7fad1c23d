package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// TestKSampleGoldenK4 pins k = 4 selection on side-64 meshes against a
// fixed snapshot: an FNV-64a of every committed run, one of the
// committed candidate indexes, and the exact KStats. The constants
// were computed before early-abandon scoring existed, when every
// candidate was scored in full, so they prove that abandoning a
// candidate that can no longer win changes no committed path, no
// committed index and no sampling stat. Serial and parallel engines
// must both match them.
func TestKSampleGoldenK4(t *testing.T) {
	for _, c := range []struct {
		name            string
		m               *mesh.Mesh
		runs, committed uint64
		ks              KStats
	}{
		{"mesh", mesh.MustSquare(2, 64), 0x2ccffe2b0fda36e6, 0x29c96f2ad03193f5,
			KStats{Candidates: 16384, RedrawWins: 2352, CommitScoreSum: 381107, FirstScoreSum: 388085, MaxCommitScore: 96}},
		{"torus", mesh.MustSquareTorus(2, 64), 0x94b4b7fc556a1865, 0x588903f4c10e8d15,
			KStats{Candidates: 16384, RedrawWins: 2461, CommitScoreSum: 379525, FirstScoreSum: 387446, MaxCommitScore: 96}},
	} {
		sel := MustNewSelector(c.m, Options{Variant: Variant2D, Seed: 5, KSample: 4})
		prob := workload.RandomPermutation(c.m, 13)
		snap := fakeSnapshot(c.m, 21)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", c.name, workers), func(t *testing.T) {
				sps := make([]mesh.SegPath, len(prob.Pairs))
				idx := make([]byte, len(prob.Pairs))
				h := Hooks{Cand: func(pkt int, _ mesh.Pair, _ mesh.SegPath, _ Stats, committed int, _ []int64) {
					idx[pkt] = byte(committed)
				}}
				_, ks := sel.Select(Request{Pairs: prob.Pairs, Workers: workers, Snapshot: snap, Segs: sps, Hooks: h})
				runs := fnv.New64a()
				var b [8]byte
				for _, sp := range sps {
					binary.LittleEndian.PutUint64(b[:], uint64(sp.Start))
					runs.Write(b[:])
					for _, sg := range sp.Segs {
						binary.LittleEndian.PutUint64(b[:], uint64(sg.Dim)<<32|uint64(uint32(sg.Run)))
						runs.Write(b[:])
					}
				}
				committed := fnv.New64a()
				committed.Write(idx)
				if got := runs.Sum64(); got != c.runs {
					t.Errorf("committed runs hash %#x, want %#x", got, c.runs)
				}
				if got := committed.Sum64(); got != c.committed {
					t.Errorf("committed index hash %#x, want %#x", got, c.committed)
				}
				if ks != c.ks {
					t.Errorf("KStats %+v, want %+v", ks, c.ks)
				}
			})
		}
	}
}

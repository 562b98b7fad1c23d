package routetab

import (
	"testing"

	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
)

// FuzzChainTable builds a table for a random mesh or torus (side,
// dimension) and bridge rule, then compares the compiled chain of a
// random (s, t) with the uncompiled decomp construction: every box,
// the bridge and the reservoir size must match.
func FuzzChainTable(f *testing.F) {
	f.Add(uint8(8), uint8(0), false, uint8(0), uint32(0), uint32(63))
	f.Add(uint8(12), uint8(0), false, uint8(1), uint32(5), uint32(140))
	f.Add(uint8(16), uint8(0), true, uint8(0), uint32(17), uint32(250))
	f.Add(uint8(6), uint8(1), false, uint8(3), uint32(7), uint32(200))
	f.Add(uint8(8), uint8(0), true, uint8(4), uint32(9), uint32(9))

	rules := []struct {
		mode decomp.Mode
		cfg  Config
	}{
		{decomp.Mode2D, Config{DCA: true}},
		{decomp.Mode2D, Config{Type1Only: true}},
		{decomp.ModeGeneral, Config{}},
		{decomp.ModeGeneral, Config{BridgeFactor: 0.5}},
		{decomp.ModeGeneral, Config{BridgeFactor: 2}},
		{decomp.ModeGeneral, Config{Type1Only: true}},
	}
	f.Fuzz(func(t *testing.T, side, dim uint8, torus bool, rule uint8, a, b uint32) {
		d := 2 + int(dim)%2
		sd := 1 + int(side)%24
		var m *mesh.Mesh
		var err error
		if torus {
			m, err = mesh.SquareTorus(d, 1<<(1+int(side)%5))
		} else {
			m, err = mesh.Square(d, sd)
		}
		if err != nil {
			t.Skip(err)
		}
		r := rules[int(rule)%len(rules)]
		dc, err := decomp.New(m, r.mode)
		if err != nil {
			t.Skip(err)
		}
		tab := Build(dc, r.cfg)
		s, u := mesh.NodeID(int(a)%m.Size()), mesh.NodeID(int(b)%m.Size())
		var buf Buf
		if err := checkChain(tab, dc, r.cfg, &buf, s, u); err != nil {
			t.Fatalf("%v %+v: %v", m, r.cfg, err)
		}
	})
}

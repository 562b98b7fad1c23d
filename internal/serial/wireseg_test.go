package serial

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

func pathsEqual(a, b []mesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// routedSegPaths selects a real run-length path set with algorithm H —
// the payload OMP2 exists to carry — plus the hop-level selection of
// the same problem for size and expansion comparisons.
func routedSegPaths(t testing.TB, m *mesh.Mesh, seed uint64) ([]mesh.SegPath, []mesh.Path) {
	t.Helper()
	v := core.VariantGeneral
	if m.Dim() == 2 {
		v = core.Variant2D
	}
	sel, err := core.NewSelector(m, core.Options{Variant: v, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	prob := workload.RandomPermutation(m, seed)
	sps, _ := sel.SelectAllSeg(prob.Pairs)
	paths, _ := sel.SelectAll(prob.Pairs)
	return sps, paths
}

func segPathsEqual(a, b []mesh.SegPath) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || len(a[i].Segs) != len(b[i].Segs) {
			return false
		}
		for j := range a[i].Segs {
			if a[i].Segs[j] != b[i].Segs[j] {
				return false
			}
		}
	}
	return true
}

func TestWireSegRoundTrip(t *testing.T) {
	meshes := []*mesh.Mesh{
		mesh.MustSquare(2, 8),
		mesh.MustSquare(3, 4),
		mesh.MustSquareTorus(2, 8),
	}
	for _, m := range meshes {
		sps, _ := routedSegPaths(t, m, 7)
		// Mix in the degenerate shapes: empty path, single node, and a
		// non-canonical multi-segment walk with a negative run.
		sps = append(sps,
			mesh.SegPath{Start: -1},
			mesh.SegPath{Start: 3},
			mesh.SegPath{Start: 0, Segs: []mesh.Seg{{Dim: 0, Run: 2}, {Dim: 0, Run: -1}}},
		)
		var buf bytes.Buffer
		if err := EncodeWireSeg(&buf, m, sps); err != nil {
			t.Fatalf("%v: encode: %v", m, err)
		}
		got, err := DecodeWireSeg(&buf, m, 0)
		if err != nil {
			t.Fatalf("%v: decode: %v", m, err)
		}
		if !segPathsEqual(sps, got) {
			t.Fatalf("%v: round trip changed the paths", m)
		}
	}
}

// The OMP2 stream must carry exactly the hop paths of the same batch —
// decoded segments expand to the legacy selection byte for byte — in
// fewer bytes than a one-byte-per-hop encoding would spend on them.
func TestWireSegMatchesHopExpansion(t *testing.T) {
	m := mesh.MustSquare(2, 32)
	sps, paths := routedSegPaths(t, m, 9)
	var segBuf bytes.Buffer
	if err := EncodeWireSeg(&segBuf, m, sps); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireSeg(bytes.NewReader(segBuf.Bytes()), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	expanded := make([]mesh.Path, len(got))
	for i, sp := range got {
		expanded[i] = sp.Expand(m)
	}
	if !pathsEqual(expanded, paths) {
		t.Fatal("decoded segments do not expand to the hop selection")
	}
	hops := 0
	for _, p := range paths {
		hops += p.Len()
	}
	if segBuf.Len() >= hops {
		t.Fatalf("OMP2 payload (%d bytes) not smaller than one byte per hop (%d hops)", segBuf.Len(), hops)
	}
}

func TestWireSegChecksumAndTruncation(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 3)
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, m, sps); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Flip one byte deep in the stream: either a run breaks or the
	// checksum catches the altered path set.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x01
	if _, err := DecodeWireSeg(bytes.NewReader(bad), m, 0); err == nil {
		t.Fatal("corrupted stream decoded cleanly")
	}

	// Truncation anywhere must fail, never hang or panic.
	for _, cut := range []int{0, 3, 5, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeWireSeg(bytes.NewReader(blob[:cut]), m, 0); err == nil {
			t.Fatalf("truncated stream (%d bytes) decoded cleanly", cut)
		}
	}

	// A non-minimal varint carries the same value, so the trailer still
	// matches; every reader rejects it all the same, in the header or in
	// a record (first record's flag, here).
	hdr := len(wireSegMagic)
	for blob[hdr]&0x80 != 0 {
		hdr++
	}
	for name, at := range map[string]int{"count": hdr, "flag": hdr + 1} {
		if blob[at] >= 0x80 {
			t.Fatalf("%s varint at %d is not one byte", name, at)
		}
		long := append(append(append([]byte(nil), blob[:at]...), blob[at]|0x80, 0), blob[at+1:]...)
		if _, err := DecodeWireSeg(bytes.NewReader(long), m, 0); err == nil || !strings.Contains(err.Error(), "non-minimal") {
			t.Fatalf("non-minimal %s varint: decoder error %v", name, err)
		}
		if _, _, err := CopyRawWireSeg(io.Discard, bytes.NewReader(long), m, len(sps)); err == nil || !strings.Contains(err.Error(), "non-minimal") {
			t.Fatalf("non-minimal %s varint: raw copy error %v", name, err)
		}
	}

	// The declared-count bound is enforced before allocation.
	if _, err := DecodeWireSeg(bytes.NewReader(blob), m, len(sps)-1); err == nil {
		t.Fatal("maxPaths bound not enforced")
	}
	if _, err := DecodeWireSeg(bytes.NewReader(blob), m, len(sps)); err != nil {
		t.Fatalf("maxPaths == count rejected: %v", err)
	}
}

func TestWireSegEncoderDeclaredCount(t *testing.T) {
	m := mesh.MustSquare(2, 4)
	var buf bytes.Buffer
	enc, err := NewWireSegEncoder(&buf, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil {
		t.Fatal("Close with paths outstanding must fail")
	}
	sp := mesh.SegPath{Start: 0, Segs: []mesh.Seg{{Dim: 0, Run: 1}}}
	if err := enc.Encode(sp); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(sp); err == nil {
		t.Fatal("Encode past the declared count must fail")
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireSeg(&buf, m, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("decode: %v (%d paths)", err, len(got))
	}
}

func TestWireSegRejectsInvalid(t *testing.T) {
	m := mesh.MustSquare(2, 4)
	bad := []mesh.SegPath{
		{Start: 0, Segs: []mesh.Seg{{Dim: 0, Run: 7}}},  // run off the open mesh
		{Start: 0, Segs: []mesh.Seg{{Dim: 5, Run: 1}}},  // no such dimension
		{Start: 0, Segs: []mesh.Seg{{Dim: 0, Run: 0}}},  // empty run
		{Start: 99, Segs: nil},                          // start off the mesh
		{Start: -1, Segs: []mesh.Seg{{Dim: 0, Run: 1}}}, // empty path with runs
	}
	for i, sp := range bad {
		var buf bytes.Buffer
		if err := EncodeWireSeg(&buf, m, []mesh.SegPath{sp}); err == nil {
			t.Errorf("case %d: encoding an invalid seg path must fail", i)
		}
	}
}

// The decoder and the mesh must agree: decoding against a different
// topology than the encoder's either fails or yields walks valid on
// the decoding mesh — never a panic, never an out-of-range node.
func TestWireSegCrossMeshDecode(t *testing.T) {
	enc := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, enc, 5)
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, enc, sps); err != nil {
		t.Fatal(err)
	}
	dec := mesh.MustSquare(3, 4)
	got, err := DecodeWireSeg(bytes.NewReader(buf.Bytes()), dec, 0)
	if err != nil {
		return // rejected: fine
	}
	for i, sp := range got {
		if sp.Start < 0 {
			continue
		}
		if _, verr := dec.SegWalkEnd(sp); verr != nil {
			t.Fatalf("cross-mesh decode accepted invalid seg path %d: %v", i, verr)
		}
	}
}

// FuzzWireSegPaths drives the OMP2 decoder with arbitrary bytes: it
// must never panic, every accepted path must be a valid walk on the
// mesh, and accepted streams must re-encode and re-decode to identical
// seg paths (round-trip identity — the server/client contract).
func FuzzWireSegPaths(f *testing.F) {
	m := mesh.MustSquare(2, 8)
	for _, seed := range []uint64{1, 42} {
		sps, _ := routedSegPaths(f, m, seed)
		var buf bytes.Buffer
		if err := EncodeWireSeg(&buf, m, sps[:16]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var small bytes.Buffer
	err := EncodeWireSeg(&small, m, []mesh.SegPath{
		{Start: -1},
		{Start: 0},
		{Start: 0, Segs: []mesh.Seg{{Dim: 0, Run: 2}, {Dim: 1, Run: 3}, {Dim: 0, Run: -1}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	mut := append([]byte(nil), small.Bytes()...)
	mut[len(mut)-3] ^= 0xff
	f.Add(mut)
	f.Add([]byte(wireSegMagic))
	f.Add([]byte("OMP1junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sps, err := DecodeWireSeg(bytes.NewReader(data), m, 1<<16)
		if err != nil {
			return
		}
		for i, sp := range sps {
			if sp.Start < 0 {
				if len(sp.Segs) != 0 {
					t.Fatalf("accepted empty path %d with segments", i)
				}
				continue
			}
			if _, verr := m.SegWalkEnd(sp); verr != nil {
				t.Fatalf("accepted invalid seg path %d: %v", i, verr)
			}
		}
		var buf bytes.Buffer
		if err := EncodeWireSeg(&buf, m, sps); err != nil {
			t.Fatalf("re-encode of accepted paths failed: %v", err)
		}
		again, err := DecodeWireSeg(&buf, m, 0)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !segPathsEqual(sps, again) {
			t.Fatal("round trip changed the paths")
		}
	})
}

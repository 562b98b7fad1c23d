package serial

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"obliviousmesh/internal/mesh"
)

// segPathEdges is the hop count the raw scanner must account for.
func segPathEdges(sps []mesh.SegPath) int64 {
	var total int64
	for _, sp := range sps {
		for _, sg := range sp.Segs {
			if sg.Run < 0 {
				total -= int64(sg.Run)
			} else {
				total += int64(sg.Run)
			}
		}
	}
	return total
}

// longWalk is a valid walk of n unit runs around a unit square from
// node 0: a record of about 2n bytes, for streams whose records
// outgrow the readers' 32 KiB window.
func longWalk(n int) mesh.SegPath {
	sp := mesh.SegPath{Start: 0}
	for i := 0; i < n; i++ {
		run := int32(1)
		if i%4 >= 2 {
			run = -1
		}
		sp.Segs = append(sp.Segs, mesh.Seg{Dim: int32(i % 2), Run: run})
	}
	return sp
}

// readerShapes wrap a whole-stream reader the ways the readers must
// tolerate: whole, one byte per Read, and half of each request.
var readerShapes = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// The raw extractor must reproduce a stream exactly: header + extracted
// payload + scanned trailer == the encoder's bytes, and the accounting
// (paths, edges) must match the decoded view — through every reader
// shape, and for a record longer than the read window.
func TestWireSegRawCopyGolden(t *testing.T) {
	type batch struct {
		m   *mesh.Mesh
		sps []mesh.SegPath
	}
	var batches []batch
	for _, m := range []*mesh.Mesh{
		mesh.MustSquare(2, 8),
		mesh.MustSquare(3, 4),
		mesh.MustSquareTorus(2, 8),
	} {
		sps, _ := routedSegPaths(t, m, 11)
		batches = append(batches, batch{m, append(sps, mesh.SegPath{Start: -1}, mesh.SegPath{Start: 3})})
	}
	batches = append(batches, batch{mesh.MustSquare(2, 128), []mesh.SegPath{
		{Start: 5, Segs: []mesh.Seg{{Dim: 1, Run: 3}}}, longWalk(20000), {Start: -1},
	}})
	for _, bt := range batches {
		m, sps := bt.m, bt.sps
		var blob bytes.Buffer
		if err := EncodeWireSeg(&blob, m, sps); err != nil {
			t.Fatal(err)
		}
		for _, shape := range readerShapes {
			var payload bytes.Buffer
			n, edges, err := CopyRawWireSeg(&payload, shape.wrap(blob.Bytes()), m, len(sps))
			if err != nil {
				t.Fatalf("%v %s: raw copy: %v", m, shape.name, err)
			}
			if want := segPathEdges(sps); edges != want {
				t.Fatalf("%v %s: raw copy counted %d edges, want %d", m, shape.name, edges, want)
			}
			if n != int64(payload.Len()) {
				t.Fatalf("%v %s: raw copy reported %d payload bytes, wrote %d", m, shape.name, n, payload.Len())
			}

			// Re-assemble through the splicer: byte-identical to the encoder.
			var rebuilt bytes.Buffer
			spl, err := NewWireSegSplicer(&rebuilt, m, len(sps))
			if err != nil {
				t.Fatal(err)
			}
			if err := spl.Splice(payload.Bytes()); err != nil {
				t.Fatalf("%v %s: splice: %v", m, shape.name, err)
			}
			if spl.Paths() != len(sps) || spl.Edges() != edges {
				t.Fatalf("%v %s: splicer books %d paths/%d edges, want %d/%d", m, shape.name, spl.Paths(), spl.Edges(), len(sps), edges)
			}
			if err := spl.Close(); err != nil {
				t.Fatalf("%v %s: splice close: %v", m, shape.name, err)
			}
			if !bytes.Equal(rebuilt.Bytes(), blob.Bytes()) {
				t.Fatalf("%v %s: spliced stream differs from the encoder's bytes", m, shape.name)
			}

			// The decoder reads the same paths through the same shape.
			got, err := DecodeWireSeg(shape.wrap(blob.Bytes()), m, 0)
			if err != nil {
				t.Fatalf("%v %s: decode: %v", m, shape.name, err)
			}
			if !segPathsEqual(got, sps) {
				t.Fatalf("%v %s: decoded paths differ from the encoded ones", m, shape.name)
			}
		}
	}
}

// Contiguous sub-streams spliced back together must be byte-identical
// to the whole-batch encoding — the gateway's shard-merge contract.
func TestWireSegSpliceSubStreams(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	sps, _ := routedSegPaths(t, m, 23)
	var whole bytes.Buffer
	if err := EncodeWireSeg(&whole, m, sps); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 5, len(sps)} {
		var out bytes.Buffer
		spl, err := NewWireSegSplicer(&out, m, len(sps))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			lo, hi := i*len(sps)/shards, (i+1)*len(sps)/shards
			var sub, payload bytes.Buffer
			if err := EncodeWireSeg(&sub, m, sps[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := CopyRawWireSeg(&payload, &sub, m, hi-lo); err != nil {
				t.Fatalf("%d shards: extract shard %d: %v", shards, i, err)
			}
			if err := spl.Splice(payload.Bytes()); err != nil {
				t.Fatalf("%d shards: splice shard %d: %v", shards, i, err)
			}
		}
		if err := spl.Close(); err != nil {
			t.Fatalf("%d shards: close: %v", shards, err)
		}
		if !bytes.Equal(out.Bytes(), whole.Bytes()) {
			t.Fatalf("%d shards: spliced stream differs from the whole-batch encoding", shards)
		}
	}
}

// The scanner must accept any chunking — here the worst case, one byte
// per Feed — and agree with the encoder's trailer.
func TestWireSegRawScannerByteAtATime(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 5)
	var blob bytes.Buffer
	if err := EncodeWireSeg(&blob, m, sps); err != nil {
		t.Fatal(err)
	}
	b := blob.Bytes()
	hdr := len(wireSegMagic)
	for b[hdr]&0x80 != 0 { // skip the count varint
		hdr++
	}
	hdr++
	payload := b[hdr : len(b)-8]
	trailer := binary.LittleEndian.Uint64(b[len(b)-8:])

	sc := NewWireSegRawScanner(m, len(sps))
	for i := range payload {
		n, err := sc.Feed(payload[i : i+1])
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if n != 1 {
			t.Fatalf("byte %d: consumed %d bytes", i, n)
		}
	}
	if !sc.Done() {
		t.Fatalf("scanner not done after the full payload (%d/%d paths)", sc.Paths(), len(sps))
	}
	if sc.Sum64() != trailer {
		t.Fatalf("scanner checksum %x, encoder trailer %x", sc.Sum64(), trailer)
	}
	// Feeding past the declared count consumes nothing.
	if n, err := sc.Feed([]byte{0}); err != nil || n != 0 {
		t.Fatalf("feed past count: n=%d err=%v", n, err)
	}
}

// Every framing violation the decoder rejects, the raw scanner must
// reject too — plus non-minimal varints, which only the scanner can
// see (the decoder normalizes them away and the checksum catches
// nothing, since it hashes values).
func TestWireSegRawScannerRejects(t *testing.T) {
	m := mesh.MustSquare(2, 4) // 16 nodes, 2 dims, maxHops 64
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"non-minimal flag", []byte{0x80, 0x00}, "non-minimal"},
		{"varint overflow", bytes.Repeat([]byte{0xff}, 10), "overflows"},
		{"ten-byte big varint", append(bytes.Repeat([]byte{0xff}, 9), 0x7f), "overflows"},
		{"start out of range", []byte{1, 16}, "out of range"},
		{"dim out of range", []byte{2, 0, 4 << 1, 1}, "dimension"},
		{"zero-length run", []byte{2, 0, 1, 0}, "empty run"},
		{"implausible nsegs", append([]byte{0xc1, 0x01}, 0), "implausible segment count"}, // flag 193 -> 192 segs > 64
		{"implausible hops", []byte{2, 0, 1, 0xc1, 0x01}, "implausible length"},           // 193 hops > 64
	}
	for _, tc := range cases {
		sc := NewWireSegRawScanner(m, 1)
		_, err := sc.Feed(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// CopyRawWireSeg end-to-end failure modes: bad magic, count mismatch,
// corruption, truncation anywhere.
func TestWireSegRawCopyRejects(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 3)
	var blob bytes.Buffer
	if err := EncodeWireSeg(&blob, m, sps); err != nil {
		t.Fatal(err)
	}
	b := blob.Bytes()

	var sink bytes.Buffer
	if _, _, err := CopyRawWireSeg(&sink, bytes.NewReader(b), m, len(sps)+1); err == nil {
		t.Fatal("declared-count mismatch accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] = 'X'
	if _, _, err := CopyRawWireSeg(&sink, bytes.NewReader(bad), m, len(sps)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt the trailer: framing fine, checksum must catch it.
	bad = append(bad[:0:0], b...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := CopyRawWireSeg(&sink, bytes.NewReader(bad), m, len(sps)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted trailer: err = %v", err)
	}
	for _, cut := range []int{0, 3, 5, len(b) / 2, len(b) - 1} {
		if _, _, err := CopyRawWireSeg(&sink, bytes.NewReader(b[:cut]), m, len(sps)); err == nil {
			t.Fatalf("truncated stream (%d bytes) accepted", cut)
		}
	}
}

// The splicer fails loudly on surplus bytes and on a short close —
// a shard that brings the wrong number of paths can never produce a
// well-formed merged stream.
func TestWireSegSplicerDeclaredCount(t *testing.T) {
	m := mesh.MustSquare(2, 4)
	one := mesh.SegPath{Start: 0, Segs: []mesh.Seg{{Dim: 0, Run: 1}}}
	payload, err := AppendWireSegPath(nil, m, one)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	spl, err := NewWireSegSplicer(&out, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := spl.Close(); err == nil {
		t.Fatal("Close with paths outstanding must fail")
	}
	if err := spl.Splice(payload); err != nil {
		t.Fatal(err)
	}
	if err := spl.Splice(payload); err == nil || !strings.Contains(err.Error(), "past the declared") {
		t.Fatalf("surplus path accepted: %v", err)
	}
}

// FuzzWireSegReframe is the splice counterpart of FuzzWireSegPaths:
// any stream the decoder accepts must survive shard-wise raw
// extraction and re-splicing with byte-identical output and unchanged
// paths, and the raw extractor itself must never panic on garbage.
func FuzzWireSegReframe(f *testing.F) {
	m := mesh.MustSquare(2, 8)
	for _, seed := range []uint64{1, 42} {
		sps, _ := routedSegPaths(f, m, seed)
		var buf bytes.Buffer
		if err := EncodeWireSeg(&buf, m, sps[:16]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(3))
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
	f.Add(small.Bytes(), uint8(2))
	mut := append([]byte(nil), small.Bytes()...)
	mut[len(mut)-3] ^= 0xff
	f.Add(mut, uint8(1))
	f.Add([]byte(wireSegMagic), uint8(1))
	f.Add([]byte{0x80, 0x00}, uint8(4))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, nsplit uint8) {
		// Garbage hardening: the raw extractor must never panic, and on
		// any stream the decoder rejects it must error too or produce the
		// same payload a canonical re-encode would (checked below).
		var sink bytes.Buffer
		sps, derr := DecodeWireSeg(bytes.NewReader(data), m, 1<<16)
		if derr != nil {
			CopyRawWireSeg(&sink, bytes.NewReader(data), m, 1<<10)
			return
		}

		// Reference: the canonical whole-batch encoding.
		var whole bytes.Buffer
		if err := EncodeWireSeg(&whole, m, sps); err != nil {
			t.Fatalf("re-encode of accepted paths failed: %v", err)
		}

		// Shard it: encode contiguous sub-batches, raw-extract each, splice.
		shards := int(nsplit%4) + 1
		if shards > len(sps) && len(sps) > 0 {
			shards = len(sps)
		}
		if len(sps) == 0 {
			shards = 1
		}
		var out bytes.Buffer
		spl, err := NewWireSegSplicer(&out, m, len(sps))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			lo, hi := i*len(sps)/shards, (i+1)*len(sps)/shards
			var sub, payload bytes.Buffer
			if err := EncodeWireSeg(&sub, m, sps[lo:hi]); err != nil {
				t.Fatal(err)
			}
			n, _, err := CopyRawWireSeg(&payload, &sub, m, hi-lo)
			if err != nil {
				t.Fatalf("shard %d/%d: raw extract: %v", i, shards, err)
			}
			if n != int64(payload.Len()) {
				t.Fatalf("shard %d/%d: reported %d payload bytes, wrote %d", i, shards, n, payload.Len())
			}
			if err := spl.Splice(payload.Bytes()); err != nil {
				t.Fatalf("shard %d/%d: splice: %v", i, shards, err)
			}
		}
		if err := spl.Close(); err != nil {
			t.Fatalf("splice close: %v", err)
		}
		if !bytes.Equal(out.Bytes(), whole.Bytes()) {
			t.Fatal("spliced stream differs from the whole-batch encoding")
		}

		// And the spliced bytes still decode to the same paths.
		again, err := DecodeWireSeg(bytes.NewReader(out.Bytes()), m, 0)
		if err != nil {
			t.Fatalf("spliced stream rejected by the decoder: %v", err)
		}
		if !segPathsEqual(sps, again) {
			t.Fatal("splice changed the paths")
		}
	})
}

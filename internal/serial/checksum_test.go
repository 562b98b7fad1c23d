package serial

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"obliviousmesh/internal/mesh"
)

// fnvOracle is the checksum as hash/fnv defines it: FNV-64a fed the 8
// little-endian bytes of every value. pathsHasher must agree with it
// value for value.
type fnvOracle struct {
	h   hash.Hash64
	buf [8]byte
}

func newFNVOracle() *fnvOracle { return &fnvOracle{h: fnv.New64a()} }

func (o *fnvOracle) put(v uint64) {
	binary.LittleEndian.PutUint64(o.buf[:], v)
	o.h.Write(o.buf[:])
}

// addSeg hashes one run-length record the way the OMP2 writer and
// readers do.
func (o *fnvOracle) addSeg(sp mesh.SegPath) {
	if sp.Start < 0 {
		o.put(0)
		return
	}
	o.put(uint64(len(sp.Segs)) + 1)
	o.put(uint64(sp.Start))
	for _, sg := range sp.Segs {
		code, steps := segCode(sg)
		o.put(code)
		o.put(steps)
	}
}

// checksumEdgeValues are the values a byte-folding hasher is most
// likely to get wrong: zero, single high bytes, interior zero bytes
// and the full 64-bit range.
var checksumEdgeValues = []uint64{
	0, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000, 0x10001,
	1 << 31, 1 << 32, 1 << 48, 1 << 56, 1<<56 | 1, 1 << 63,
	0x0100000000000001, 0x00ff00ff00ff00ff, 0xff00ff00ff00ff00,
	math.MaxInt64, math.MaxUint64, math.MaxUint64 - 1,
}

// randomChecksumValue draws a value with a random count of significant
// bytes, and sometimes zeroes an interior byte.
func randomChecksumValue(rng *rand.Rand) uint64 {
	v := rng.Uint64() >> (8 * uint(rng.Intn(8)))
	if rng.Intn(9) == 8 {
		v = 0
	}
	if rng.Intn(3) == 0 {
		v &^= 0xff << (8 * uint(rng.Intn(8)))
	}
	return v
}

func TestPathsHasherMatchesFNV(t *testing.T) {
	for _, v := range checksumEdgeValues {
		var ph pathsHasher
		ph.init(0)
		o := newFNVOracle()
		o.put(0)
		ph.put(v)
		o.put(v)
		if ph.sum64() != o.h.Sum64() {
			t.Fatalf("value %#x: folded %#x, hash/fnv %#x", v, ph.sum64(), o.h.Sum64())
		}
	}
	rng := rand.New(rand.NewSource(18))
	for stream := 0; stream < 2000; stream++ {
		n := rng.Intn(40)
		var ph pathsHasher
		ph.init(n)
		o := newFNVOracle()
		o.put(uint64(n))
		for i := 0; i < n; i++ {
			v := randomChecksumValue(rng)
			if rng.Intn(8) == 0 {
				v = checksumEdgeValues[rng.Intn(len(checksumEdgeValues))]
			}
			ph.put(v)
			o.put(v)
			if ph.sum64() != o.h.Sum64() {
				t.Fatalf("stream %d value %d (%#x): folded %#x, hash/fnv %#x", stream, i, v, ph.sum64(), o.h.Sum64())
			}
		}
	}
}

// goldenTrailerPaths is a fixed side-16 path set that depends on no
// selector: 256 staircase paths alternating the dimension order, plus
// an empty and a single-node path (258 paths, so the count itself is a
// two-byte value).
func goldenTrailerPaths() (*mesh.Mesh, []mesh.Path, []mesh.SegPath) {
	m := mesh.MustSquare(2, 16)
	var paths []mesh.Path
	var sps []mesh.SegPath
	for i := 0; i < m.Size(); i++ {
		s, d := mesh.NodeID(i), mesh.NodeID((i*37+11)%m.Size())
		perm := []int{0, 1}
		if i%2 == 1 {
			perm = []int{1, 0}
		}
		p := m.StaircasePath(s, d, perm)
		paths = append(paths, p)
		sps = append(sps, p.Compress(m))
	}
	paths = append(paths, mesh.Path{}, mesh.Path{42})
	sps = append(sps, mesh.SegPath{Start: -1}, mesh.SegPath{Start: 42})
	return m, paths, sps
}

// TestWireTrailersGolden pins the OMP2 trailer and PathsChecksum of a
// fixed path set to constants recorded with the hash/fnv
// implementation. Encoder and decoder share one hasher, so a round
// trip alone would accept a consistent but different checksum; these
// constants pin the bytes on the wire. PathsChecksum is the trailer the
// retired per-hop format (OMP1) carried, so it still pins the hop form
// of the hasher.
func TestWireTrailersGolden(t *testing.T) {
	const (
		omp2Trailer   = 0x5d838ef03eeef1e8
		omp2Len       = 1649
		pathsChecksum = 0x0b55059d147fb81d
	)
	m, paths, sps := goldenTrailerPaths()
	var b2 bytes.Buffer
	if err := EncodeWireSeg(&b2, m, sps); err != nil {
		t.Fatal(err)
	}
	trailer := func(b []byte) uint64 { return binary.LittleEndian.Uint64(b[len(b)-8:]) }
	if got := trailer(b2.Bytes()); got != omp2Trailer || b2.Len() != omp2Len {
		t.Errorf("OMP2: trailer %#x in %d bytes, want %#x in %d", got, b2.Len(), uint64(omp2Trailer), omp2Len)
	}
	if got := PathsChecksum(paths); got != pathsChecksum {
		t.Errorf("PathsChecksum %#x, want %#x", got, uint64(pathsChecksum))
	}
	o := newFNVOracle()
	o.put(uint64(len(sps)))
	for _, sp := range sps {
		o.addSeg(sp)
	}
	if got := trailer(b2.Bytes()); got != o.h.Sum64() {
		t.Errorf("OMP2 trailer %#x, hash/fnv over the same values %#x", got, o.h.Sum64())
	}
}

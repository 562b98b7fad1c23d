package serial

import (
	"math/bits"

	"obliviousmesh/internal/mesh"
)

// FNV-64a parameters (hash/fnv's New64a, which the tests keep as the
// oracle).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k mod 2^64. FNV-1a XORs each byte into
// the state and then multiplies by the prime, so a zero byte is a bare
// multiply, and a byte followed by k-1 zero bytes is one xor and one
// multiply by fnvPrimePow[k].
var fnvPrimePow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime64
	}
	return t
}()

// pathsHasher computes PathsChecksum incrementally, one path at a
// time, so the streaming encoder and decoder never hold the whole set.
// The checksum is FNV-64a over each value's 8 little-endian bytes. put
// runs the xor-multiply over the value's significant low bytes only,
// and the multiply of the last one absorbs the zero high bytes: the
// state is the one hash/fnv reaches after all 8 bytes.
type pathsHasher struct {
	h uint64
}

func (ph *pathsHasher) init(count int) {
	ph.h = fnvOffset64
	ph.put(uint64(count))
}

func (ph *pathsHasher) put(v uint64) { ph.h = fnvPut(ph.h, v) }

// fnvPut advances FNV-64a state h over the 8 little-endian bytes of v.
// Callers that hash several values keep h in a local between calls, so
// the state never round-trips through memory. One byte, the usual
// OMP2 value, is the inlined case.
func fnvPut(h, v uint64) uint64 {
	if v < 0x100 {
		return (h ^ v) * fnvPrimePow[8]
	}
	return fnvPutLong(h, v)
}

func fnvPutLong(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) >> 3 // significant bytes, at least 2
	for i := 1; i < n; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return (h ^ v) * fnvPrimePow[9-n]
}

func (ph *pathsHasher) add(p mesh.Path) {
	h := fnvPut(ph.h, uint64(len(p)))
	for _, n := range p {
		h = fnvPut(h, uint64(n))
	}
	ph.h = h
}

func (ph *pathsHasher) sum64() uint64 { return ph.h }

package serial

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"obliviousmesh/internal/mesh"
)

// Compact binary path encoding — the wire format of the routing
// service's streaming batch mode. A mesh path moves one hop at a time,
// so each hop is fully described by (dimension, direction): one byte
// instead of a full node id. A 64-hop path on a 2-D mesh costs ~70
// bytes on the wire versus ~700 as JSON node arrays, and the encoder
// streams path by path, so a server can flush partial batches while
// the rest is still being routed.
//
// Layout (varints are unsigned LEB128 via encoding/binary):
//
//	magic    "OMP1" (4 bytes)
//	count    varint — number of paths
//	per path:
//	  nodes  varint — number of nodes (0 = empty path)
//	  src    varint — first node id (omitted when nodes == 0)
//	  hops   nodes-1 bytes — each dim<<1 | dirBit (dirBit 1 = +1 step)
//	trailer  8 bytes LE — PathsChecksum of the decoded set
//
// Decoding rebuilds node ids by stepping through the mesh, so every
// accepted path is a valid walk by construction (wrap steps on the
// torus included), and the checksum trailer rejects truncation or
// corruption loudly. Both ends must agree on the mesh (see the
// service's /v1/mesh endpoint); a hop that walks off the mesh or
// names a dimension outside it fails the decode.

// wireMagic identifies the compact path wire format, version 1.
const wireMagic = "OMP1"

// WireContentType is the MIME type the routing service uses for
// compact binary batch responses.
const WireContentType = "application/x-obliviousmesh-paths"

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
// the state never round-trips through memory.
func fnvPut(h, v uint64) uint64 {
	n := (bits.Len64(v|1) + 7) >> 3 // significant bytes, at least 1
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

// hopCode encodes the step a→b as dim<<1|dirBit. It fails if a and b
// are not adjacent or the dimension does not fit the 7 bits available.
func hopCode(m *mesh.Mesh, a, b mesh.NodeID) (byte, error) {
	e, ok := m.EdgeBetween(a, b)
	if !ok {
		return 0, fmt.Errorf("serial: wire: nodes %d and %d not adjacent", a, b)
	}
	_, _, dim := m.EdgeEndpoints(e)
	if dim > 127 {
		return 0, fmt.Errorf("serial: wire: dimension %d exceeds the hop-byte range", dim)
	}
	if n, ok := m.Step(a, dim, +1); ok && n == b {
		return byte(dim<<1 | 1), nil
	}
	return byte(dim << 1), nil
}

// AppendWirePath appends the compact encoding of one path to dst.
func AppendWirePath(dst []byte, m *mesh.Mesh, p mesh.Path) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	if len(p) == 0 {
		return dst, nil
	}
	dst = binary.AppendUvarint(dst, uint64(p[0]))
	for i := 1; i < len(p); i++ {
		code, err := hopCode(m, p[i-1], p[i])
		if err != nil {
			return dst, err
		}
		dst = append(dst, code)
	}
	return dst, nil
}

// WireEncoder streams a batch of paths in the compact wire format: the
// header goes out on construction, then one Encode call per path (in
// order), then Close for the checksum trailer. Writes go straight to
// w, so an HTTP handler can flush between paths while later paths are
// still being routed.
type WireEncoder struct {
	w    io.Writer
	m    *mesh.Mesh
	buf  []byte
	sum  pathsHasher
	left int
}

// NewWireEncoder starts a compact stream of exactly count paths,
// writing the header immediately.
func NewWireEncoder(w io.Writer, m *mesh.Mesh, count int) (*WireEncoder, error) {
	if count < 0 {
		return nil, fmt.Errorf("serial: wire: negative path count %d", count)
	}
	e := &WireEncoder{w: w, m: m, left: count}
	e.sum.init(count)
	hdr := append(e.buf, wireMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(count))
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	e.buf = hdr[:0]
	return e, nil
}

// Encode appends the next path to the stream.
func (e *WireEncoder) Encode(p mesh.Path) error {
	if e.left <= 0 {
		return fmt.Errorf("serial: wire: more paths than the declared count")
	}
	var err error
	e.buf, err = AppendWirePath(e.buf[:0], e.m, p)
	if err != nil {
		return err
	}
	e.sum.add(p)
	e.left--
	_, werr := e.w.Write(e.buf)
	return werr
}

// Close writes the checksum trailer; the stream is invalid without it.
func (e *WireEncoder) Close() error {
	if e.left != 0 {
		return fmt.Errorf("serial: wire: %d declared paths not encoded", e.left)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], e.sum.sum64())
	_, err := e.w.Write(tail[:])
	return err
}

// EncodeWire writes a whole path set in the compact wire format.
func EncodeWire(w io.Writer, m *mesh.Mesh, paths []mesh.Path) error {
	enc, err := NewWireEncoder(w, m, len(paths))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return enc.Close()
}

// MaxWireBytes bounds the byte size of any OMP1 stream of count paths
// that DecodeWire would accept against m: per path a length and a
// source varint (≤ 10 bytes each) plus at most 4·size − 1 hop bytes
// (the decoder's walk-length ceiling). The OMP1 counterpart of
// MaxWireSegBytes, for capping client body reads.
func MaxWireBytes(m *mesh.Mesh, count int) int64 {
	perPath := int64(20) + 4*int64(m.Size())
	return int64(len(wireMagic)) + 10 + int64(count)*perPath + 8
}

// DecodeWire reads a compact path stream back into paths, verifying
// every hop against the mesh and the checksum trailer. maxPaths bounds
// the declared count (≤ 0 means no bound) so a hostile stream cannot
// force a huge allocation up front.
func DecodeWire(r io.Reader, m *mesh.Mesh, maxPaths int) ([]mesh.Path, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("serial: wire: read magic: %w", err)
	}
	if string(magic[:]) != wireMagic {
		return nil, fmt.Errorf("serial: wire: bad magic %q", magic[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("serial: wire: read count: %w", err)
	}
	if maxPaths > 0 && count > uint64(maxPaths) {
		return nil, fmt.Errorf("serial: wire: %d paths exceeds limit %d", count, maxPaths)
	}
	if count > uint64(1)<<32 {
		return nil, fmt.Errorf("serial: wire: implausible path count %d", count)
	}
	size := m.Size()
	// A simple path revisits no node, and cycle-removed selector paths
	// are simple; allow slack for general walks while still rejecting
	// absurd lengths from corrupt streams.
	maxNodes := uint64(4) * uint64(size)
	paths := make([]mesh.Path, 0, count)
	var sum pathsHasher
	sum.init(int(count))
	for i := uint64(0); i < count; i++ {
		nodes, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("serial: wire: path %d: read length: %w", i, err)
		}
		if nodes == 0 {
			paths = append(paths, mesh.Path{})
			sum.add(nil)
			continue
		}
		if nodes > maxNodes {
			return nil, fmt.Errorf("serial: wire: path %d: implausible length %d", i, nodes)
		}
		src, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("serial: wire: path %d: read source: %w", i, err)
		}
		if src >= uint64(size) {
			return nil, fmt.Errorf("serial: wire: path %d: source %d out of range", i, src)
		}
		p := make(mesh.Path, nodes)
		p[0] = mesh.NodeID(src)
		for j := uint64(1); j < nodes; j++ {
			code, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("serial: wire: path %d: read hop: %w", i, err)
			}
			dim, dir := int(code>>1), -1
			if code&1 == 1 {
				dir = +1
			}
			if dim >= m.Dim() {
				return nil, fmt.Errorf("serial: wire: path %d hop %d: dimension %d out of range", i, j, dim)
			}
			n, ok := m.Step(p[j-1], dim, dir)
			if !ok {
				return nil, fmt.Errorf("serial: wire: path %d hop %d: step %+d in dim %d walks off the mesh", i, j, dir, dim)
			}
			p[j] = n
		}
		paths = append(paths, p)
		sum.add(p)
	}
	var tail [8]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("serial: wire: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(tail[:]); got != sum.sum64() {
		return nil, fmt.Errorf("serial: wire: checksum mismatch (stored %x, decoded %x)", got, sum.sum64())
	}
	return paths, nil
}

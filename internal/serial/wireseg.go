package serial

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"obliviousmesh/internal/mesh"
)

// Run-length binary path encoding — the wire format of the routing
// service's streaming batch mode (OMP2; version 1, a per-hop encoding,
// is retired). Algorithm H builds each path dimension by dimension, so
// a path is a handful of axis-aligned runs no matter how long it is: a
// 64-hop staircase on a 2-D mesh is ~2 segments (≈10 bytes) where one
// byte per hop would be ≈70 — an 8–16× smaller payload at side 256.
// The encoder streams path by path, so the routing service can flush
// partial batches during routing.
//
// Layout (varints are unsigned LEB128 via encoding/binary):
//
//	magic    "OMP2" (4 bytes)
//	count    varint — number of paths
//	per path:
//	  flag   varint — number of segments + 1; 0 = empty path,
//	          1 = single-node path
//	  start  varint — first node id (omitted when flag == 0)
//	  per segment:
//	    code  varint — dim<<1 | dirBit (dirBit 1 = +direction run)
//	    steps varint — run length in hops (≥ 1)
//	trailer  8 bytes LE — FNV-64a over count and the per-path records
//
// Decoding validates every run against the mesh geometry (SegWalkEnd),
// so an accepted stream always describes valid walks, and the checksum
// trailer rejects truncation or corruption loudly. Both ends must
// agree on the mesh (see the service's /v1/mesh endpoint).

// wireSegMagic identifies the run-length path wire format, version 2.
const wireSegMagic = "OMP2"

// WireSegContentType is the MIME type the routing service uses for
// run-length binary batch responses.
const WireSegContentType = "application/x-obliviousmesh-segpaths"

// segCode encodes one segment header as dim<<1|dirBit plus the run
// length in hops. Runs are validated by the caller, so Dim ≥ 0 and
// Run ≠ 0 hold here. Run directions are close to random along a path,
// so the sign is taken apart without a branch.
func segCode(sg mesh.Seg) (code, steps uint64) {
	run := int64(sg.Run)
	neg := run >> 63 // -1 for a −direction run, else 0
	return uint64(sg.Dim)<<1 | uint64(neg+1), uint64((run ^ neg) - neg)
}

// segPathsHasher extends the incremental FNV checksum to run-length
// records: flag, then start and the (code, steps) pair of every
// segment. Encoder and decoder hash the same decoded values, so the
// trailer pins content, not byte framing.
type segPathsHasher struct {
	pathsHasher
}

func (sh *segPathsHasher) add(sp mesh.SegPath) {
	if sp.Start < 0 {
		sh.put(0)
		return
	}
	h := fnvPut(sh.h, uint64(len(sp.Segs))+1)
	h = fnvPut(h, uint64(sp.Start))
	for _, sg := range sp.Segs {
		code, steps := segCode(sg)
		h = fnvPut(h, code)
		h = fnvPut(h, steps)
	}
	sh.h = h
}

// AppendWireSegPath appends the run-length encoding of one path to
// dst, rejecting anything that is not a valid walk on m.
func AppendWireSegPath(dst []byte, m *mesh.Mesh, sp mesh.SegPath) ([]byte, error) {
	if sp.Start < 0 {
		if len(sp.Segs) != 0 {
			return dst, fmt.Errorf("serial: wireseg: empty path with %d segments", len(sp.Segs))
		}
		return binary.AppendUvarint(dst, 0), nil
	}
	if _, err := m.SegWalkEnd(sp); err != nil {
		return dst, fmt.Errorf("serial: wireseg: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(sp.Segs))+1)
	dst = binary.AppendUvarint(dst, uint64(sp.Start))
	for _, sg := range sp.Segs {
		code, steps := segCode(sg)
		dst = binary.AppendUvarint(dst, code)
		dst = binary.AppendUvarint(dst, steps)
	}
	return dst, nil
}

// WireSegEncoder streams a batch of run-length paths: header on
// construction, one Encode per path in order, Close for the checksum
// trailer. Writes go straight to w, so an HTTP handler can flush
// between paths while later paths are still being routed.
type WireSegEncoder struct {
	w    io.Writer
	m    *mesh.Mesh
	buf  []byte
	sum  segPathsHasher
	left int
}

// NewWireSegEncoder starts a run-length stream of exactly count paths,
// writing the header immediately.
func NewWireSegEncoder(w io.Writer, m *mesh.Mesh, count int) (*WireSegEncoder, error) {
	if count < 0 {
		return nil, fmt.Errorf("serial: wireseg: negative path count %d", count)
	}
	e := &WireSegEncoder{w: w, m: m, left: count}
	e.sum.init(count)
	hdr := append(e.buf, wireSegMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(count))
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	e.buf = hdr[:0]
	return e, nil
}

// Encode appends the next path to the stream.
func (e *WireSegEncoder) Encode(sp mesh.SegPath) error {
	if e.left <= 0 {
		return fmt.Errorf("serial: wireseg: more paths than the declared count")
	}
	var err error
	e.buf, err = AppendWireSegPath(e.buf[:0], e.m, sp)
	if err != nil {
		return err
	}
	e.sum.add(sp)
	e.left--
	_, werr := e.w.Write(e.buf)
	return werr
}

// Close writes the checksum trailer; the stream is invalid without it.
func (e *WireSegEncoder) Close() error {
	if e.left != 0 {
		return fmt.Errorf("serial: wireseg: %d declared paths not encoded", e.left)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], e.sum.sum64())
	_, err := e.w.Write(tail[:])
	return err
}

// wireSegEncPool recycles encoders (and, through them, their varint
// scratch buffers) across requests, so the serve pipeline frames each
// request without allocating rather than with a fresh buffer growth
// curve per batch.
var wireSegEncPool = sync.Pool{New: func() any { return new(WireSegEncoder) }}

// AcquireWireSegEncoder is NewWireSegEncoder drawing the encoder and
// its scratch buffer from a package pool. The caller must Release the
// encoder (after Close) to return it; a released encoder must not be
// used again.
func AcquireWireSegEncoder(w io.Writer, m *mesh.Mesh, count int) (*WireSegEncoder, error) {
	if count < 0 {
		return nil, fmt.Errorf("serial: wireseg: negative path count %d", count)
	}
	e := wireSegEncPool.Get().(*WireSegEncoder)
	e.w, e.m, e.left = w, m, count
	e.sum.init(count)
	hdr := append(e.buf[:0], wireSegMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(count))
	if _, err := w.Write(hdr); err != nil {
		e.Release()
		return nil, err
	}
	e.buf = hdr[:0]
	return e, nil
}

// Release returns a pooled encoder for reuse, keeping its buffer
// capacity. Safe on encoders from NewWireSegEncoder too.
func (e *WireSegEncoder) Release() {
	e.w, e.m, e.left = nil, nil, 0
	e.sum = segPathsHasher{}
	wireSegEncPool.Put(e)
}

// MaxWireSegBytes bounds the byte size of any OMP2 stream of count
// paths that the decoder would accept against m: per path a flag and a
// start varint (≤ 10 bytes each) plus at most 4·size segments — every
// segment is ≥ 1 hop and the decoder rejects walks over 4·size hops —
// of two varints each. Clients cap response-body reads with it so a
// lying server cannot balloon memory past what a valid stream could
// need.
func MaxWireSegBytes(m *mesh.Mesh, count int) int64 {
	perPath := int64(20) + 80*int64(m.Size())
	return int64(len(wireSegMagic)) + 10 + int64(count)*perPath + 8
}

// EncodeWireSeg writes a whole run-length path set in the OMP2 wire
// format.
func EncodeWireSeg(w io.Writer, m *mesh.Mesh, sps []mesh.SegPath) error {
	enc, err := NewWireSegEncoder(w, m, len(sps))
	if err != nil {
		return err
	}
	for _, sp := range sps {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return enc.Close()
}

// WireSegDecoder reads an OMP2 stream one path at a time: header
// validation on construction, one Next call per declared path, Close to
// verify the checksum trailer. Each Next holds only its own path live,
// so a consumer that processes paths as they arrive runs at O(1) paths
// of memory regardless of batch size — the client side of the serve
// pipeline. The monolithic DecodeWireSeg is this decoder driven to
// completion.
type WireSegDecoder struct {
	br      *bufio.Reader
	m       *mesh.Mesh
	count   uint64
	read    uint64
	maxHops uint64
	sum     segPathsHasher
}

// NewWireSegDecoder validates the stream header (magic, declared count
// against maxPaths; ≤ 0 means no bound) and returns a decoder
// positioned at the first path.
func NewWireSegDecoder(r io.Reader, m *mesh.Mesh, maxPaths int) (*WireSegDecoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("serial: wireseg: read magic: %w", err)
	}
	if string(magic[:]) != wireSegMagic {
		return nil, fmt.Errorf("serial: wireseg: bad magic %q", magic[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("serial: wireseg: read count: %w", err)
	}
	if maxPaths > 0 && count > uint64(maxPaths) {
		return nil, fmt.Errorf("serial: wireseg: %d paths exceeds limit %d", count, maxPaths)
	}
	if count > uint64(1)<<32 {
		return nil, fmt.Errorf("serial: wireseg: implausible path count %d", count)
	}
	d := &WireSegDecoder{br: br, m: m, count: count}
	// A simple path revisits no node, and cycle-removed selector paths
	// are simple; allow slack for general walks while still rejecting
	// absurd lengths from corrupt streams. Every segment is at least one
	// hop, so both the segment count and the hop total of one path are
	// bounded by 4·size.
	d.maxHops = uint64(4) * uint64(m.Size())
	d.sum.init(int(count))
	return d, nil
}

// Count reports the stream's declared path count.
func (d *WireSegDecoder) Count() int { return int(d.count) }

// Next decodes and validates the next path. The returned SegPath is
// freshly allocated and caller-owned. Calling Next past the declared
// count returns io.EOF; trailer verification is Close's job.
func (d *WireSegDecoder) Next() (mesh.SegPath, error) {
	if d.read >= d.count {
		return mesh.SegPath{}, io.EOF
	}
	i := d.read
	flag, err := binary.ReadUvarint(d.br)
	if err != nil {
		return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d: read segment count: %w", i, err)
	}
	if flag == 0 {
		sp := mesh.SegPath{Start: -1}
		d.sum.add(sp)
		d.read++
		return sp, nil
	}
	nsegs := flag - 1
	if nsegs > d.maxHops {
		return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d: implausible segment count %d", i, nsegs)
	}
	start, err := binary.ReadUvarint(d.br)
	if err != nil {
		return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d: read start: %w", i, err)
	}
	if start >= uint64(d.m.Size()) {
		return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d: start %d out of range", i, start)
	}
	sp := mesh.SegPath{Start: mesh.NodeID(start)}
	if nsegs > 0 {
		sp.Segs = make([]mesh.Seg, 0, nsegs)
	}
	hops := uint64(0)
	for j := uint64(0); j < nsegs; j++ {
		code, err := binary.ReadUvarint(d.br)
		if err != nil {
			return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d segment %d: read code: %w", i, j, err)
		}
		steps, err := binary.ReadUvarint(d.br)
		if err != nil {
			return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d segment %d: read length: %w", i, j, err)
		}
		dim := code >> 1
		if dim >= uint64(d.m.Dim()) {
			return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d segment %d: dimension %d out of range", i, j, dim)
		}
		if steps == 0 {
			return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d segment %d: empty run", i, j)
		}
		if hops += steps; hops > d.maxHops || steps > math.MaxInt32 {
			return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d: implausible length %d", i, hops)
		}
		run := int32(steps)
		if code&1 == 0 {
			run = -run
		}
		sp.Segs = append(sp.Segs, mesh.Seg{Dim: int32(dim), Run: run})
	}
	if _, err := d.m.SegWalkEnd(sp); err != nil {
		return mesh.SegPath{}, fmt.Errorf("serial: wireseg: path %d: %w", i, err)
	}
	d.sum.add(sp)
	d.read++
	return sp, nil
}

// Close verifies the checksum trailer after every declared path has
// been read; the stream is invalid without it.
func (d *WireSegDecoder) Close() error {
	if d.read != d.count {
		return fmt.Errorf("serial: wireseg: %d declared paths not decoded", d.count-d.read)
	}
	var tail [8]byte
	if _, err := io.ReadFull(d.br, tail[:]); err != nil {
		return fmt.Errorf("serial: wireseg: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(tail[:]); got != d.sum.sum64() {
		return fmt.Errorf("serial: wireseg: checksum mismatch (stored %x, decoded %x)", got, d.sum.sum64())
	}
	return nil
}

// DecodeWireSeg reads an OMP2 stream back into run-length paths,
// verifying every run against the mesh and the checksum trailer.
// maxPaths bounds the declared count (≤ 0 means no bound) so a hostile
// stream cannot force a huge allocation up front.
func DecodeWireSeg(r io.Reader, m *mesh.Mesh, maxPaths int) ([]mesh.SegPath, error) {
	d, err := NewWireSegDecoder(r, m, maxPaths)
	if err != nil {
		return nil, err
	}
	sps := make([]mesh.SegPath, 0, d.count)
	for i := uint64(0); i < d.count; i++ {
		sp, err := d.Next()
		if err != nil {
			return nil, err
		}
		sps = append(sps, sp)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return sps, nil
}

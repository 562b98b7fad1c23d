package serial

import (
	"encoding/binary"
	"fmt"
	"io"
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
// Every reader — WireSegDecoder, CopyRawWireSeg, WireSegRawScanner,
// WireSegSplicer — runs one record kernel (wireseg_read.go) that checks
// each record against the mesh geometry (SegWalkEnd's rule) and
// requires minimal varints, so an accepted stream describes valid
// walks in canonical bytes: record bytes and values are bijective, and
// a trailer that matches the values also pins the bytes. The trailer
// rejects truncation or corruption loudly. Both ends must agree on the
// mesh (see the service's /v1/mesh endpoint).

// wireSegMagic identifies the run-length path wire format, version 2.
const wireSegMagic = "OMP2"

// WireSegContentType is the MIME type the routing service uses for
// run-length binary batch responses.
const WireSegContentType = "application/x-obliviousmesh-segpaths"

// segCode encodes a validated segment as dim<<1|dirBit plus the run
// length in hops. Run directions are close to random along a path, so
// the sign is taken apart without a branch.
func segCode(sg mesh.Seg) (code, steps uint64) {
	run := int64(sg.Run)
	neg := run >> 63 // -1 for a −direction run, else 0
	return uint64(sg.Dim)<<1 | uint64(neg+1), uint64((run ^ neg) - neg)
}

// AppendWireSegPath appends the run-length encoding of one path to
// dst, rejecting anything that is not a valid walk on m.
func AppendWireSegPath(dst []byte, m *mesh.Mesh, sp mesh.SegPath) ([]byte, error) {
	dst, _, err := appendWireSegPath(dst, 0, m, sp)
	return dst, err
}

// appendWireSegPath is AppendWireSegPath extending FNV-64a state h over
// the record's values in the same pass: the trailer pins the values
// the readers hash, not byte framing.
func appendWireSegPath(dst []byte, h uint64, m *mesh.Mesh, sp mesh.SegPath) ([]byte, uint64, error) {
	if sp.Start < 0 {
		if len(sp.Segs) != 0 {
			return dst, h, fmt.Errorf("serial: wireseg: empty path with %d segments", len(sp.Segs))
		}
		return append(dst, 0), fnvPut(h, 0), nil
	}
	if _, err := m.SegWalkEnd(sp); err != nil {
		return dst, h, fmt.Errorf("serial: wireseg: %w", err)
	}
	flag := uint64(len(sp.Segs)) + 1
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, flag), uint64(sp.Start))
	h = fnvPut(fnvPut(h, flag), uint64(sp.Start))
	for _, sg := range sp.Segs {
		code, steps := segCode(sg)
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, code), steps)
		h = fnvPut(fnvPut(h, code), steps)
	}
	return dst, h, nil
}

// WireSegEncoder streams a batch of run-length paths: header on
// construction, one Encode per path in order, Close for the checksum
// trailer. Writes go straight to w, so an HTTP handler can flush
// between paths while later paths are still being routed.
type WireSegEncoder struct {
	w    io.Writer
	m    *mesh.Mesh
	buf  []byte
	h    uint64 // FNV-64a state
	left int
}

// NewWireSegEncoder starts a run-length stream of exactly count paths,
// writing the header immediately.
func NewWireSegEncoder(w io.Writer, m *mesh.Mesh, count int) (*WireSegEncoder, error) {
	e := new(WireSegEncoder)
	if err := e.start(w, m, count); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *WireSegEncoder) start(w io.Writer, m *mesh.Mesh, count int) error {
	if count < 0 {
		return fmt.Errorf("serial: wireseg: negative path count %d", count)
	}
	e.w, e.m, e.left = w, m, count
	e.h = fnvPut(fnvOffset64, uint64(count))
	e.buf = binary.AppendUvarint(append(e.buf[:0], wireSegMagic...), uint64(count))
	_, err := w.Write(e.buf)
	return err
}

// Encode appends the next path to the stream.
func (e *WireSegEncoder) Encode(sp mesh.SegPath) error {
	if e.left <= 0 {
		return fmt.Errorf("serial: wireseg: more paths than the declared count")
	}
	var err error
	if e.buf, e.h, err = appendWireSegPath(e.buf[:0], e.h, e.m, sp); err != nil {
		return err
	}
	e.left--
	_, werr := e.w.Write(e.buf)
	return werr
}

// Close writes the checksum trailer; the stream is invalid without it.
func (e *WireSegEncoder) Close() error {
	if e.left != 0 {
		return fmt.Errorf("serial: wireseg: %d declared paths not encoded", e.left)
	}
	_, err := e.w.Write(binary.LittleEndian.AppendUint64(e.buf[:0], e.h))
	return err
}

// wireSegEncPool recycles encoders and their scratch buffers, so the
// serve pipeline frames each request without allocating.
var wireSegEncPool = sync.Pool{New: func() any { return new(WireSegEncoder) }}

// AcquireWireSegEncoder is NewWireSegEncoder drawing the encoder and
// its scratch buffer from a package pool. The caller must Release the
// encoder (after Close) to return it; a released encoder must not be
// used again.
func AcquireWireSegEncoder(w io.Writer, m *mesh.Mesh, count int) (*WireSegEncoder, error) {
	e := wireSegEncPool.Get().(*WireSegEncoder)
	if err := e.start(w, m, count); err != nil {
		e.Release()
		return nil, err
	}
	return e, nil
}

// Release returns a pooled encoder for reuse, keeping its buffer
// capacity. Safe on encoders from NewWireSegEncoder too.
func (e *WireSegEncoder) Release() {
	e.w, e.m, e.h, e.left = nil, nil, 0, 0
	wireSegEncPool.Put(e)
}

// MaxWireSegBytes bounds the byte size of any OMP2 stream of count
// paths a reader accepts against m: per path a flag and a start varint
// (≤ 10 bytes each) plus at most 4·size segments (every run is ≥ 1 hop,
// and walks over 4·size hops are rejected) of two varints each. Clients
// cap response reads with it, so a lying server cannot balloon memory.
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

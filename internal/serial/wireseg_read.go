package serial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"obliviousmesh/internal/mesh"
)

var (
	errVarintOverflow   = errors.New("varint overflows uint64")
	errVarintNonMinimal = errors.New("non-minimal varint")
)

// uvarint returns the minimal LEB128 varint at the front of p and its
// byte length k; k == 0 means p ends inside it or, with an error, that
// it is malformed.
func uvarint(p []byte) (v uint64, k int, err error) {
	for i, b := range p {
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, 0, errVarintOverflow
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, 0, errVarintNonMinimal
			}
			return v, i + 1, nil
		}
	}
	return 0, 0, nil
}

// kernelDim is one mesh dimension; c is the walk's coordinate on it.
type kernelDim struct {
	side int
	wrap bool
	c    int
}

// recordKernel validates OMP2 path records against one mesh; its dims
// double as coordinate scratch, for one goroutine at a time. maxHops,
// 4·size, bounds a record's runs and hops: slack for walks that are
// not simple, while absurd lengths from corrupt streams fail.
type recordKernel struct {
	dims          []kernelDim
	size, maxHops uint64
}

func newRecordKernel(m *mesh.Mesh) recordKernel {
	k := recordKernel{dims: make([]kernelDim, m.Dim()), size: uint64(m.Size()), maxHops: 4 * uint64(m.Size())}
	for i := range k.dims {
		k.dims[i] = kernelDim{side: m.Side(i), wrap: m.WrapDim(i)}
	}
	return k
}

// record is the record kernel: in one pass over the path record at the
// front of p, with its varint state in locals, it checks every value
// and that the runs are a walk on the mesh (coordinates tracked, so no
// run needs a division), extends FNV-64a state h over the values and,
// when sp is not nil, stores the record in sp (runs appended to
// sp.Segs[:0]). It returns the record's length n > 0 and hop count.
// Otherwise err rejects the record, or, when nil, p ends inside it and
// the record is at least -n bytes long (one byte per value to come).
func (k *recordKernel) record(p []byte, h uint64, sp *mesh.SegPath) (n int, _ uint64, hops uint64, err error) {
	flag, n, err := uvarint(p)
	if n == 0 {
		return -(len(p) + 1), h, 0, err
	}
	h = fnvPut(h, flag)
	if flag == 0 {
		if sp != nil {
			sp.Start, sp.Segs = -1, sp.Segs[:0]
		}
		return n, h, 0, nil
	}
	nsegs := flag - 1
	if nsegs > k.maxHops {
		return 0, h, 0, fmt.Errorf("implausible segment count %d", nsegs)
	}
	start, j, err := uvarint(p[n:])
	if j == 0 {
		return -(len(p) + 1 + 2*int(nsegs)), h, 0, err
	}
	if n += j; start >= k.size {
		return 0, h, 0, fmt.Errorf("start %d out of range", start)
	}
	h = fnvPut(h, start)
	for i, u := 0, int(start); i < len(k.dims); i++ {
		d := &k.dims[i]
		d.c, u = u%d.side, u/d.side
	}
	if sp != nil {
		sp.Start, sp.Segs = mesh.NodeID(int(start)), sp.Segs[:0]
	}
	for s := uint64(0); s < nsegs; s++ {
		var code, steps uint64
		if n+1 < len(p) && p[n]|p[n+1] < 0x80 { // both one byte: the common case
			code, steps = uint64(p[n]), uint64(p[n+1])
			n += 2
		} else {
			if code, j, err = uvarint(p[n:]); j > 0 {
				n += j
				steps, j, err = uvarint(p[n:])
			}
			if j == 0 {
				return -(len(p) + 2*int(nsegs-s) - 1), h, 0, err
			}
			n += j
		}
		if code>>1 >= uint64(len(k.dims)) {
			return 0, h, 0, fmt.Errorf("segment %d: dimension %d out of range", s, code>>1)
		}
		if steps == 0 {
			return 0, h, 0, fmt.Errorf("segment %d: empty run", s)
		}
		if hops += steps; hops > k.maxHops || steps > math.MaxInt32 {
			return 0, h, 0, fmt.Errorf("implausible length %d", hops)
		}
		h = fnvPut(fnvPut(h, code), steps)
		run := int(steps)
		if code&1 == 0 {
			run = -run
		}
		d := &k.dims[code>>1]
		c := d.c + run
		if d.wrap {
			if c < 0 || c >= d.side { // across the seam; a lap needs the modulus
				c = (c%d.side + d.side) % d.side
			}
		} else if c < 0 || c >= d.side {
			return 0, h, 0, fmt.Errorf("segment %d: run of %d along dim %d from coordinate %d leaves side %d",
				s, run, code>>1, d.c, d.side)
		}
		d.c = c
		if sp != nil {
			sp.Segs = append(sp.Segs, mesh.Seg{Dim: int32(code >> 1), Run: int32(run)})
		}
	}
	return n, h, hops, nil
}

// recordErr names the path a kernel error belongs to.
func recordErr(path uint64, err error) error {
	return fmt.Errorf("serial: wireseg: path %d: %w", path, err)
}

// windowPool holds the readers' 32 KiB windows. A record longer than
// the window grows it into a fresh array; only the pooled one returns.
var windowPool = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

// window is a read window over r: buf[lo:hi] is read but not yet
// consumed.
type window struct {
	r      io.Reader
	pooled *[]byte
	buf    []byte
	lo, hi int
}

func newWindow(r io.Reader) window {
	bp := windowPool.Get().(*[]byte)
	return window{r: r, pooled: bp, buf: *bp}
}

func (w *window) release() {
	if w.pooled != nil {
		windowPool.Put(w.pooled)
	}
	*w = window{r: w.r}
}

// bytes is the unconsumed part of the window.
func (w *window) bytes() []byte { return w.buf[w.lo:w.hi] }

// fill reads until n bytes are unconsumed, sliding and growing the
// window as needed; a stream that ends short is io.ErrUnexpectedEOF.
func (w *window) fill(n int) error {
	if w.hi-w.lo >= n {
		return nil
	}
	if w.lo > 0 {
		w.hi, w.lo = copy(w.buf, w.buf[w.lo:w.hi]), 0
	}
	if n > len(w.buf) {
		w.buf = append(w.buf, make([]byte, max(n, 2*len(w.buf))-len(w.buf))...)
	}
	for w.hi < n {
		k, err := w.r.Read(w.buf[w.hi:])
		if w.hi += k; err != nil && w.hi < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// more reads toward an incomplete record's lower bound, growing the
// window at most twofold, so a lying record cannot make a reader
// allocate much more than it was sent.
func (w *window) more(need int) error { return w.fill(min(need, 2*len(w.buf))) }

// header reads an OMP2 stream header and returns the declared count.
func (w *window) header() (uint64, error) {
	if err := w.fill(len(wireSegMagic)); err != nil {
		return 0, fmt.Errorf("serial: wireseg: read magic: %w", err)
	}
	if magic := w.bytes()[:len(wireSegMagic)]; string(magic) != wireSegMagic {
		return 0, fmt.Errorf("serial: wireseg: bad magic %q", magic)
	}
	w.lo += len(wireSegMagic)
	for {
		count, k, err := uvarint(w.bytes())
		if k > 0 {
			w.lo += k
			return count, nil
		}
		if err == nil {
			err = w.fill(w.hi - w.lo + 1)
		}
		if err != nil {
			return 0, fmt.Errorf("serial: wireseg: read count: %w", err)
		}
	}
}

// trailer reads the 8-byte checksum trailer and compares it with sum.
func (w *window) trailer(sum uint64) error {
	if err := w.fill(8); err != nil {
		return fmt.Errorf("serial: wireseg: read checksum: %w", err)
	}
	got := binary.LittleEndian.Uint64(w.bytes())
	if w.lo += 8; got != sum {
		return fmt.Errorf("serial: wireseg: checksum mismatch (stored %x, computed %x)", got, sum)
	}
	return nil
}

// WireSegDecoder reads an OMP2 stream one path at a time: header
// validation on construction, one Next (or NextLent) call per declared
// path, Close to verify the checksum trailer. A consumer that processes
// paths as they arrive holds O(1) paths of memory whatever the batch
// size — the client side of the serve pipeline.
type WireSegDecoder struct {
	w  window
	sc WireSegRawScanner // kernel, trailer state and books
	sp mesh.SegPath      // NextLent's scratch
}

// NewWireSegDecoder reads the stream header (magic, and a declared
// count within maxPaths; ≤ 0 means no bound).
func NewWireSegDecoder(r io.Reader, m *mesh.Mesh, maxPaths int) (*WireSegDecoder, error) {
	d := &WireSegDecoder{w: newWindow(r)}
	count, err := d.w.header()
	switch {
	case err != nil:
	case maxPaths > 0 && count > uint64(maxPaths):
		err = fmt.Errorf("serial: wireseg: %d paths exceeds limit %d", count, maxPaths)
	case count > uint64(1)<<32:
		err = fmt.Errorf("serial: wireseg: implausible path count %d", count)
	}
	if err != nil {
		d.w.release()
		return nil, err
	}
	d.sc = *NewWireSegRawScanner(m, int(count))
	return d, nil
}

// Count reports the stream's declared path count.
func (d *WireSegDecoder) Count() int { return int(d.sc.count) }

// Next decodes and validates the next path. The returned SegPath is
// freshly allocated and caller-owned. Calling Next past the declared
// count returns io.EOF; trailer verification is Close's job.
func (d *WireSegDecoder) Next() (mesh.SegPath, error) {
	sp, err := d.NextLent()
	return sp.Clone(), err
}

// NextLent is Next without the copy: the path's runs live in the
// decoder's scratch, valid until the next call on d.
func (d *WireSegDecoder) NextLent() (mesh.SegPath, error) {
	sc := &d.sc
	if sc.paths >= sc.count {
		return mesh.SegPath{}, io.EOF
	}
	for {
		n, h, hops, err := sc.k.record(d.w.bytes(), sc.h, &d.sp)
		if n > 0 {
			d.w.lo += n
			sc.h, sc.edges, sc.paths = h, sc.edges+int64(hops), sc.paths+1
			return d.sp, nil
		}
		if err == nil {
			err = d.w.more(-n)
		}
		if err != nil {
			return mesh.SegPath{}, recordErr(sc.paths, err)
		}
	}
}

// Close verifies the checksum trailer once every declared path is read
// (the stream is invalid without it) and retires the decoder.
func (d *WireSegDecoder) Close() error {
	if d.sc.paths != d.sc.count {
		return fmt.Errorf("serial: wireseg: %d declared paths not decoded", d.sc.count-d.sc.paths)
	}
	err := d.w.trailer(d.sc.h)
	d.w.release()
	return err
}

// DecodeWireSeg reads a whole OMP2 stream into caller-owned paths.
// maxPaths bounds the declared count (≤ 0 means no bound) so a hostile
// stream cannot force a huge allocation up front.
func DecodeWireSeg(r io.Reader, m *mesh.Mesh, maxPaths int) ([]mesh.SegPath, error) {
	d, err := NewWireSegDecoder(r, m, maxPaths)
	if err != nil {
		return nil, err
	}
	sps := make([]mesh.SegPath, d.Count())
	for i := range sps {
		if sps[i], err = d.Next(); err != nil {
			return nil, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return sps, nil
}

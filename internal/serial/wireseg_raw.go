package serial

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"obliviousmesh/internal/mesh"
)

// Raw re-framing of OMP2 streams: splicing shard streams into one
// without decoding them.
//
// A gateway that splits one logical batch across identically-seeded
// backends gets back sub-streams whose path records are, byte for
// byte, the records a single daemon would have emitted for the whole
// batch (paths are pure functions of (seed, stream, s, t), and the
// encoder's varints are canonical). Re-assembling those shards
// therefore never needs to materialize a SegPath: it is enough to
//
//	validate   each record's framing and geometry bounds (the same
//	           checks WireSegDecoder runs, minus the SegWalkEnd walk:
//	           an invalid walk fails loudly at the receiving decoder
//	           instead), and
//	hash       the decoded varint values into the FNV-64a trailer the
//	           single-daemon stream would carry, and
//	forward    the payload bytes verbatim.
//
// WireSegRawScanner is that validator/hasher: it consumes the payload
// region (the records between the stream header and trailer) in
// arbitrary chunks, never allocating per path. CopyRawWireSeg drives
// it over a whole stream (header and trailer verified, payload copied
// out); WireSegSplicer drives it over concatenated shard payloads to
// emit one merged stream whose header, records and trailer are exactly
// what one daemon would have produced.
//
// The scanner is stricter than the decoder in one way: varints must be
// minimal (the canonical form AppendUvarint emits). That makes payload
// bytes and decoded values bijective, so "trailer matches" implies
// "bytes match what a canonical encoder would emit" — the property the
// splice's byte-equality rests on.

// rawState is the scanner's position inside a path record.
type rawState uint8

const (
	rawFlag  rawState = iota // expecting a record's flag varint
	rawStart                 // expecting the start-node varint
	rawCode                  // expecting a segment's code varint
	rawSteps                 // expecting a segment's run-length varint
)

// WireSegRawScanner incrementally validates OMP2 path records from raw
// payload bytes and computes the exact value checksum WireSegDecoder
// would, without decoding into SegPaths. Feed it the payload region in
// any chunking; it stops consuming after the declared path count.
type WireSegRawScanner struct {
	sum     segPathsHasher
	size    uint64 // mesh node count
	dims    uint64 // mesh dimension count
	maxHops uint64 // decoder's 4·size walk-length ceiling
	count   uint64 // declared paths
	paths   uint64 // complete records consumed
	edges   int64  // total hops across consumed records

	st    rawState
	val   uint64 // varint accumulator
	shift uint
	nsegs uint64 // segments left in the current record
	hops  uint64 // hops so far in the current record
}

// NewWireSegRawScanner returns a scanner for a stream of exactly count
// paths on m. The checksum is seeded with count, so Sum64 after a full
// feed equals the trailer a WireSegEncoder would write for the same
// records.
func NewWireSegRawScanner(m *mesh.Mesh, count int) *WireSegRawScanner {
	s := &WireSegRawScanner{
		size:    uint64(m.Size()),
		dims:    uint64(m.Dim()),
		maxHops: 4 * uint64(m.Size()),
		count:   uint64(count),
	}
	s.sum.init(count)
	return s
}

// Feed consumes payload bytes, validating and hashing them. It returns
// how many bytes it consumed: n < len(p) only when the declared path
// count completed mid-chunk (the remaining bytes belong to the trailer
// or are the caller's framing error to diagnose). A framing or bounds
// violation returns the offset it was detected at and a non-nil error;
// the scanner is then poisoned and must not be fed again.
func (s *WireSegRawScanner) Feed(p []byte) (int, error) {
	for i, b := range p {
		if s.paths >= s.count {
			return i, nil
		}
		if s.shift == 63 && b > 1 {
			return i, fmt.Errorf("serial: wireseg: raw path %d: varint overflows uint64", s.paths)
		}
		s.val |= uint64(b&0x7f) << s.shift
		if b&0x80 != 0 {
			s.shift += 7
			if s.shift > 63 {
				return i, fmt.Errorf("serial: wireseg: raw path %d: varint overflows uint64", s.paths)
			}
			continue
		}
		if b == 0 && s.shift > 0 {
			return i, fmt.Errorf("serial: wireseg: raw path %d: non-minimal varint", s.paths)
		}
		v := s.val
		s.val, s.shift = 0, 0
		if err := s.accept(v); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// accept applies one completed varint to the record state machine,
// running the decoder's bounds checks and extending the checksum.
func (s *WireSegRawScanner) accept(v uint64) error {
	switch s.st {
	case rawFlag:
		s.sum.put(v)
		if v == 0 { // empty path
			s.paths++
			return nil
		}
		s.nsegs = v - 1
		if s.nsegs > s.maxHops {
			return fmt.Errorf("serial: wireseg: raw path %d: implausible segment count %d", s.paths, s.nsegs)
		}
		s.hops = 0
		s.st = rawStart
	case rawStart:
		if v >= s.size {
			return fmt.Errorf("serial: wireseg: raw path %d: start %d out of range", s.paths, v)
		}
		s.sum.put(v)
		if s.nsegs == 0 { // single-node path
			s.paths++
			s.st = rawFlag
			return nil
		}
		s.st = rawCode
	case rawCode:
		if v>>1 >= s.dims {
			return fmt.Errorf("serial: wireseg: raw path %d: dimension %d out of range", s.paths, v>>1)
		}
		s.sum.put(v)
		s.st = rawSteps
	case rawSteps:
		if v == 0 {
			return fmt.Errorf("serial: wireseg: raw path %d: empty run", s.paths)
		}
		if s.hops += v; s.hops > s.maxHops || v > math.MaxInt32 {
			return fmt.Errorf("serial: wireseg: raw path %d: implausible length %d", s.paths, s.hops)
		}
		s.sum.put(v)
		s.edges += int64(v)
		if s.nsegs--; s.nsegs == 0 {
			s.paths++
			s.st = rawFlag
		} else {
			s.st = rawCode
		}
	}
	return nil
}

// Paths reports how many complete path records have been consumed.
func (s *WireSegRawScanner) Paths() int { return int(s.paths) }

// Edges reports the total hop count across the consumed records — the
// figure the decode path derives from SegPath.Len, for request
// accounting without decoding.
func (s *WireSegRawScanner) Edges() int64 { return s.edges }

// Done reports whether every declared path has been consumed exactly
// (no record left dangling mid-varint or mid-segment).
func (s *WireSegRawScanner) Done() bool {
	return s.paths == s.count && s.st == rawFlag && s.shift == 0 && s.val == 0
}

// Sum64 is the FNV-64a value checksum over the consumed records — the
// trailer a canonical encoder would write after the same paths.
func (s *WireSegRawScanner) Sum64() uint64 { return s.sum.sum64() }

// rawCopyPool recycles the transfer buffers CopyRawWireSeg streams
// through, so a gateway fetching shards in a hot loop does not regrow a
// fresh 32 KiB window per sub-request.
var rawCopyPool = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

// CopyRawWireSeg reads one complete OMP2 stream from src, validates it
// end to end — magic, declared count (which must equal count exactly),
// record framing and geometry bounds, checksum trailer — and writes the
// payload region (the path records, header and trailer stripped) to dst
// as it is verified. It allocates O(1) regardless of stream size and
// returns the payload byte count and the records' total hop count.
//
// Bytes reach dst before the trailer is verified (that is what makes it
// streaming), so a consumer that must not act on unverified data has to
// buffer — the gateway's splice parks each shard until this returns.
func CopyRawWireSeg(dst io.Writer, src io.Reader, m *mesh.Mesh, count int) (payload int64, edges int64, err error) {
	if count < 0 {
		return 0, 0, fmt.Errorf("serial: wireseg: negative path count %d", count)
	}
	bufp := rawCopyPool.Get().(*[]byte)
	defer rawCopyPool.Put(bufp)
	buf := *bufp

	// window is buf[lo:hi]: bytes read but not yet consumed.
	lo, hi := 0, 0
	fill := func(min int) error {
		if hi-lo >= min {
			return nil
		}
		if lo > 0 { // slide the window down to make room
			hi = copy(buf, buf[lo:hi])
			lo = 0
		}
		for hi-lo < min {
			n, rerr := src.Read(buf[hi:])
			hi += n
			if rerr != nil {
				if rerr == io.EOF && hi-lo >= min {
					return nil
				}
				if rerr == io.EOF {
					rerr = io.ErrUnexpectedEOF
				}
				return rerr
			}
		}
		return nil
	}

	if err := fill(len(wireSegMagic)); err != nil {
		return 0, 0, fmt.Errorf("serial: wireseg: read magic: %w", err)
	}
	if string(buf[lo:lo+len(wireSegMagic)]) != wireSegMagic {
		return 0, 0, fmt.Errorf("serial: wireseg: bad magic %q", buf[lo:lo+len(wireSegMagic)])
	}
	lo += len(wireSegMagic)

	declared, shift := uint64(0), uint(0)
	for {
		if err := fill(1); err != nil {
			return 0, 0, fmt.Errorf("serial: wireseg: read count: %w", err)
		}
		b := buf[lo]
		lo++
		if shift == 63 && b > 1 || shift > 63 {
			return 0, 0, fmt.Errorf("serial: wireseg: read count: varint overflows uint64")
		}
		declared |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			if b == 0 && shift > 0 {
				return 0, 0, fmt.Errorf("serial: wireseg: read count: non-minimal varint")
			}
			break
		}
		shift += 7
	}
	if declared != uint64(count) {
		return 0, 0, fmt.Errorf("serial: wireseg: stream declares %d paths, want %d", declared, count)
	}

	sc := NewWireSegRawScanner(m, count)
	for !sc.Done() {
		if hi == lo {
			if err := fill(1); err != nil {
				return payload, sc.Edges(), fmt.Errorf("serial: wireseg: raw path %d: %w", sc.Paths(), err)
			}
		}
		k, serr := sc.Feed(buf[lo:hi])
		if serr != nil {
			return payload, sc.Edges(), serr
		}
		if k > 0 {
			if _, werr := dst.Write(buf[lo : lo+k]); werr != nil {
				return payload, sc.Edges(), werr
			}
			payload += int64(k)
			lo += k
		}
	}
	if err := fill(8); err != nil {
		return payload, sc.Edges(), fmt.Errorf("serial: wireseg: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(buf[lo : lo+8]); got != sc.Sum64() {
		return payload, sc.Edges(), fmt.Errorf("serial: wireseg: checksum mismatch (stored %x, scanned %x)", got, sc.Sum64())
	}
	return payload, sc.Edges(), nil
}

// WireSegSplicer assembles one OMP2 stream from verified raw payload
// fragments: header on construction, any number of Splice calls (in
// path order), Close for the checksum trailer. Fragment bytes are
// forwarded to w verbatim while a WireSegRawScanner re-validates the
// framing and extends the value checksum, so the merged stream —
// header, records, trailer — is byte-identical to what one canonical
// encoder would have produced for the concatenated paths.
type WireSegSplicer struct {
	w  io.Writer
	sc *WireSegRawScanner
}

// NewWireSegSplicer starts a spliced stream of exactly count paths,
// writing the header immediately.
func NewWireSegSplicer(w io.Writer, m *mesh.Mesh, count int) (*WireSegSplicer, error) {
	if count < 0 {
		return nil, fmt.Errorf("serial: wireseg: negative path count %d", count)
	}
	var hdr [len(wireSegMagic) + binary.MaxVarintLen64]byte
	n := copy(hdr[:], wireSegMagic)
	n += binary.PutUvarint(hdr[n:], uint64(count))
	if _, err := w.Write(hdr[:n]); err != nil {
		return nil, err
	}
	return &WireSegSplicer{w: w, sc: NewWireSegRawScanner(m, count)}, nil
}

// Splice validates and forwards one payload fragment. Fragments need
// not align to record boundaries (Close catches a dangling record),
// but bytes past the declared path count are an error here, not at
// Close — a shard that brought too many paths must fail before any of
// its surplus reaches the client.
func (s *WireSegSplicer) Splice(payload []byte) error {
	k, err := s.sc.Feed(payload)
	if err != nil {
		return err
	}
	if k != len(payload) {
		return fmt.Errorf("serial: wireseg: splice: %d bytes past the declared %d paths", len(payload)-k, s.sc.count)
	}
	_, werr := s.w.Write(payload)
	return werr
}

// Paths reports how many complete records have been spliced.
func (s *WireSegSplicer) Paths() int { return s.sc.Paths() }

// Edges reports the total hop count across the spliced records.
func (s *WireSegSplicer) Edges() int64 { return s.sc.Edges() }

// Close writes the checksum trailer; the stream is invalid without it.
func (s *WireSegSplicer) Close() error {
	if !s.sc.Done() {
		return fmt.Errorf("serial: wireseg: splice: %d of %d declared paths spliced", s.sc.Paths(), s.sc.count)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], s.sc.Sum64())
	_, err := s.w.Write(tail[:])
	return err
}

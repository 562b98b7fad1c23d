package serial

import (
	"encoding/binary"
	"fmt"
	"io"

	"obliviousmesh/internal/mesh"
)

// Raw re-framing: a gateway that splits one batch across same-seed
// backends gets back shard records that are, byte for byte, the records
// one daemon would have emitted for the whole batch. So merging shards
// never materializes a SegPath: the record kernel validates each
// record and hashes its values into the single-daemon trailer, and the
// bytes are forwarded verbatim — by CopyRawWireSeg for one stream, by
// WireSegSplicer over concatenated shard payloads.

// WireSegRawScanner validates the records of a payload region (the
// stream minus header and trailer) and computes its checksum without
// decoding a SegPath. It stops consuming after the declared count.
type WireSegRawScanner struct {
	k     recordKernel
	h     uint64 // FNV-64a state
	count uint64 // declared paths
	paths uint64 // complete records consumed
	edges int64  // total hops across consumed records
	carry []byte // an incomplete record's bytes from earlier Feeds
	need  int    // the carried record's length is at least need
}

// NewWireSegRawScanner returns a scanner for a stream of exactly count
// paths on m; after a full feed Sum64 is the encoder's trailer.
func NewWireSegRawScanner(m *mesh.Mesh, count int) *WireSegRawScanner {
	return &WireSegRawScanner{k: newRecordKernel(m), h: fnvPut(fnvOffset64, uint64(count)), count: uint64(count)}
}

// scan runs the kernel over p's whole records, up to the declared
// count, and returns the bytes they span; s.need is set when p ends
// inside a record.
func (s *WireSegRawScanner) scan(p []byte) (int, error) {
	i, h, edges, paths := 0, s.h, s.edges, s.paths
	var err error
	for paths < s.count {
		n, h2, hops, kerr := s.k.record(p[i:], h, nil)
		if n <= 0 {
			if kerr != nil {
				err = recordErr(paths, kerr)
			}
			s.need = -n
			break
		}
		i, h, edges, paths = i+n, h2, edges+int64(hops), paths+1
	}
	s.h, s.edges, s.paths = h, edges, paths
	return i, err
}

// Feed validates and hashes payload bytes in any chunking (a record
// split across calls is carried over) and returns how many it
// consumed: fewer than len(p) only when the declared count completed
// mid-chunk. After an error the scanner must not be fed again.
func (s *WireSegRawScanner) Feed(p []byte) (int, error) {
	if s.paths >= s.count {
		return 0, nil
	}
	buf, old := p, len(s.carry)
	if old > 0 {
		if s.carry = append(s.carry, p...); len(s.carry) < s.need {
			return len(p), nil
		}
		buf = s.carry
	}
	n, err := s.scan(buf)
	if err != nil || s.paths == s.count {
		s.carry = s.carry[:0]
		return max(n-old, 0), err
	}
	s.carry = append(s.carry[:0], buf[n:]...)
	return len(p), nil
}

// Paths reports how many complete path records have been consumed.
func (s *WireSegRawScanner) Paths() int { return int(s.paths) }

// Edges reports the total hop count across the consumed records.
func (s *WireSegRawScanner) Edges() int64 { return s.edges }

// Done reports whether every declared path, and no partial one, is in.
func (s *WireSegRawScanner) Done() bool { return s.paths == s.count && len(s.carry) == 0 }

// Sum64 is the FNV-64a checksum of the consumed records.
func (s *WireSegRawScanner) Sum64() uint64 { return s.h }

// CopyRawWireSeg reads one OMP2 stream from src, validates it end to
// end — magic, a declared count equal to count, every record, the
// trailer — and writes the payload region (the records) to dst as it is
// verified, returning its byte count and total hop count. Bytes reach
// dst before the trailer is checked, so a consumer that must not act on
// unverified data buffers: the gateway's splice parks each shard until
// this returns.
func CopyRawWireSeg(dst io.Writer, src io.Reader, m *mesh.Mesh, count int) (payload int64, edges int64, err error) {
	if count < 0 {
		return 0, 0, fmt.Errorf("serial: wireseg: negative path count %d", count)
	}
	w := newWindow(src)
	defer w.release()
	declared, err := w.header()
	if err != nil {
		return 0, 0, err
	}
	if declared != uint64(count) {
		return 0, 0, fmt.Errorf("serial: wireseg: stream declares %d paths, want %d", declared, count)
	}
	sc := NewWireSegRawScanner(m, count)
	for sc.paths < sc.count {
		// Write the window's whole records out before it slides.
		n, err := sc.scan(w.bytes())
		if _, werr := dst.Write(w.bytes()[:n]); werr != nil {
			return payload, sc.edges, werr
		}
		payload, w.lo = payload+int64(n), w.lo+n
		if err == nil && sc.paths < sc.count {
			if err = w.more(sc.need); err != nil {
				err = recordErr(sc.paths, err)
			}
		}
		if err != nil {
			return payload, sc.edges, err
		}
	}
	return payload, sc.edges, w.trailer(sc.h)
}

// WireSegSplicer assembles one OMP2 stream from verified payload
// fragments: header on construction, Splice calls in path order, Close
// for the trailer. Fragments are forwarded verbatim while a scanner
// re-validates them and extends the checksum, so the merged stream is
// byte-identical to one canonical encoding of the concatenated paths.
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
	if _, err := w.Write(binary.AppendUvarint(append(hdr[:0], wireSegMagic...), uint64(count))); err != nil {
		return nil, err
	}
	return &WireSegSplicer{w: w, sc: NewWireSegRawScanner(m, count)}, nil
}

// Splice validates and forwards one payload fragment. Fragments need
// not align to records (Close catches a dangling one), but bytes past
// the declared count fail here, before any surplus reaches the client.
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
	_, err := s.w.Write(binary.LittleEndian.AppendUint64(tail[:0], s.sc.Sum64()))
	return err
}

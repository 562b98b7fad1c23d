package server

import (
	"io"
	"sync"

	"obliviousmesh/internal/mesh"
)

// HopRows renders run-length paths as the node-id rows of the JSON
// /v1/batch and /v1/route replies — the one row renderer of the daemon
// and the gateway. Every row's ids live back to back in one flat
// []int, and Rows carves them with three-index slices, so rows cannot
// bleed into each other. Pooled: after warm-up, rendering a reply
// allocates nothing. The front releases its HopRows only after the
// reply has been encoded.
type HopRows struct {
	hops mesh.Path // expansion scratch of the path being appended
	ints []int     // every row's node ids, back to back
	ends []int     // ends[i] is where row i stops in ints
	rows [][]int
}

var hopRowsPool = sync.Pool{New: func() any { return new(HopRows) }}

// AcquireHopRows returns an empty pooled HopRows; Release returns it.
func AcquireHopRows() *HopRows {
	r := hopRowsPool.Get().(*HopRows)
	r.ints, r.ends = r.ints[:0], r.ends[:0]
	return r
}

// Release hands r back to the pool; its rows are dead afterwards.
func (r *HopRows) Release() { hopRowsPool.Put(r) }

// Append expands sp's hops on m into the next row.
func (r *HopRows) Append(m *mesh.Mesh, sp mesh.SegPath) {
	r.hops = sp.AppendExpand(m, r.hops[:0])
	for _, n := range r.hops {
		r.ints = append(r.ints, int(n))
	}
	r.ends = append(r.ends, len(r.ints))
}

// Rows returns the appended rows in order, valid until Release. With
// no rows it returns nil, so an empty batch encodes {"paths":null}
// whatever capacity the pool holds.
func (r *HopRows) Rows() [][]int {
	if len(r.ends) == 0 {
		return nil
	}
	r.rows = r.rows[:0]
	lo := 0
	for _, hi := range r.ends {
		r.rows = append(r.rows, r.ints[lo:hi:hi])
		lo = hi
	}
	return r.rows
}

// getLoadSnap returns a pooled EdgeSpace-long buffer for a k-sample
// load snapshot; putLoadSnap returns it once scoring is done.
func (s *Server) getLoadSnap() *[]int64 {
	if b, ok := s.snapPool.Get().(*[]int64); ok {
		return b
	}
	b := make([]int64, s.m.EdgeSpace())
	return &b
}

func (s *Server) putLoadSnap(b *[]int64) { s.snapPool.Put(b) }

// readAppend drains r into buf (reusing its capacity), the
// pool-friendly io.ReadAll.
func readAppend(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

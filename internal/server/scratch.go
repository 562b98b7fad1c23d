package server

import (
	"io"
	"sync"
	"weak"

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

// snapBufs caches the EdgeSpace-long load vectors that k-sample
// selection and /metrics snapshot the live tracker into, held weakly:
// an idle buffer is reused by the next request if no GC has run since
// it was put back, and freed by the next GC otherwise. A sync.Pool
// would keep idle buffers through a GC in its victim cache, so they
// would count as resident heap; here the cache holds, between GCs, at
// most as many buffers as snapshots were in flight at once, and none
// after a GC. A reused buffer needs no clearing: SnapshotInto writes
// every cell.
type snapBufs struct {
	size int
	mu   sync.Mutex
	free []weak.Pointer[[]int64]
}

// get returns an idle buffer that is still alive, or a new one.
func (c *snapBufs) get() *[]int64 {
	c.mu.Lock()
	for len(c.free) > 0 {
		wp := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		if b := wp.Value(); b != nil {
			c.mu.Unlock()
			return b
		}
	}
	c.mu.Unlock()
	b := make([]int64, c.size)
	return &b
}

// put hands b back; the cache holds it only weakly.
func (c *snapBufs) put(b *[]int64) {
	c.mu.Lock()
	c.free = append(c.free, weak.Make(b))
	c.mu.Unlock()
}

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

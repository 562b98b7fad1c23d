package server

import (
	"io"

	"obliviousmesh/internal/mesh"
)

// jsonScratch is the per-request reusable backing of the JSON response
// shapes: one flat []int holds every row's integers (carved with
// three-index slices, so rows can't bleed into each other) and one
// [][]int holds the row headers. Pooled per Server; a request releases
// its scratch only after WriteJSON has fully encoded the response, so
// nothing the encoder read is ever recycled early. This removes the
// per-path make([]int, ...) from the JSON batch, seg-batch, and route
// handlers — after warm-up the response shaping allocates nothing.
type jsonScratch struct {
	ints []int
	rows [][]int
}

func (s *Server) getJSONScratch() *jsonScratch {
	if sc, ok := s.jsonPool.Get().(*jsonScratch); ok {
		return sc
	}
	return &jsonScratch{}
}

func (s *Server) putJSONScratch(sc *jsonScratch) { s.jsonPool.Put(sc) }

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

// grow readies the flat backing for total ints and the header slice
// for n rows, reusing capacity.
func (sc *jsonScratch) grow(total, n int) {
	if cap(sc.ints) < total {
		sc.ints = make([]int, 0, total)
	}
	sc.ints = sc.ints[:0]
	if cap(sc.rows) < n {
		sc.rows = make([][]int, 0, n)
	}
	sc.rows = sc.rows[:0]
}

// row carves the next k-int row out of the flat backing.
func (sc *jsonScratch) row(k int) []int {
	off := len(sc.ints)
	sc.ints = sc.ints[:off+k]
	return sc.ints[off : off : off+k]
}

// intsFor returns a reused length-n []int (for the single-route
// response, which fills by index).
func (sc *jsonScratch) intsFor(n int) []int {
	if cap(sc.ints) < n {
		sc.ints = make([]int, n)
	}
	return sc.ints[:n]
}

// hopRows shapes hop paths into JSON node-id rows, all backed by the
// scratch. Rows are valid until the scratch is released.
func (sc *jsonScratch) hopRows(paths []mesh.Path) [][]int {
	if len(paths) == 0 {
		return nil // {"paths":null}, whatever capacity the pool holds
	}
	total := 0
	for _, p := range paths {
		total += len(p)
	}
	sc.grow(total, len(paths))
	for _, p := range paths {
		row := sc.row(len(p))
		for _, n := range p {
			row = append(row, int(n))
		}
		sc.rows = append(sc.rows, row)
	}
	return sc.rows
}

// batchScratch is the request-side counterpart of jsonScratch: the raw
// body bytes, the decoded PairList (its parser reuses the capacity),
// and the validated []mesh.Pair all live in one pooled
// bundle, so a steady stream of equal-sized batches parses with zero
// slice growth. Safe to recycle when doBatch returns: even the
// pipelined wire2 path joins its selection goroutine (the results
// channel closes) before returning, so nothing references the pairs
// afterwards.
type batchScratch struct {
	body  []byte
	req   BatchRequest
	pairs []mesh.Pair
}

func (s *Server) getBatchScratch() *batchScratch {
	if bs, ok := s.reqPool.Get().(*batchScratch); ok {
		return bs
	}
	return &batchScratch{}
}

func (s *Server) putBatchScratch(bs *batchScratch) { s.reqPool.Put(bs) }

// ReadAppend drains r into buf (reusing its capacity), the
// pool-friendly io.ReadAll. Exported for the gateway, whose ingress
// runs the same pooled-parse discipline.
func ReadAppend(buf []byte, r io.Reader) ([]byte, error) {
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

// pairsFor returns a reused length-n []mesh.Pair.
func (bs *batchScratch) pairsFor(n int) []mesh.Pair {
	if cap(bs.pairs) < n {
		bs.pairs = make([]mesh.Pair, n)
	}
	return bs.pairs[:n]
}

// segRows shapes run-length paths into the flat
// [start, dim0, run0, ...] JSON records, all backed by the scratch.
func (sc *jsonScratch) segRows(sps []mesh.SegPath) [][]int {
	if len(sps) == 0 {
		return nil
	}
	total := 0
	for _, sp := range sps {
		total += 1 + 2*len(sp.Segs)
	}
	sc.grow(total, len(sps))
	for _, sp := range sps {
		row := sc.row(1 + 2*len(sp.Segs))
		row = append(row, int(sp.Start))
		for _, sg := range sp.Segs {
			row = append(row, int(sg.Dim), int(sg.Run))
		}
		sc.rows = append(sc.rows, row)
	}
	return sc.rows
}

// The pipelined wire2 serve path: selection and encoding of a batch
// overlap, with all per-chunk memory drawn from pools, so a
// steady-state /v1/batch?format=wire2 request holds O(BatchChunk) live
// bytes no matter how many pairs the batch carries.
//
// Stages (DESIGN.md §14):
//
//	select  one goroutine walks the chunks in order, leasing a pipeBuf
//	        (chunk-sized SegPath slice + slab arena group) per chunk and
//	        routing pairs[lo:hi] into it with the global stream ids;
//	encode  the handler goroutine receives finished chunks in order,
//	        frames them with the pooled OMP2 encoder, flushes, and
//	        hands the pipeBuf back for reuse.
//
// Backpressure is the free list: exactly two pipeBufs circulate, so
// selection runs at most one chunk ahead of the socket and a slow
// client stalls routing instead of ballooning memory. Slab lifetime
// rule: every SegPath in a pipeBuf aliases its arena group and dies at
// the Reset that precedes the buffer's next lease — no SegPath escapes
// its chunk (the live tracker books during selection; the encoder only
// reads).
package server

import (
	"context"
	"net/http"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

// pipeBuf is one pipeline slot: a chunk's worth of SegPath headers plus
// the slab arenas their Segs are carved from. Pooled per Server, so
// sequential requests reuse the same slabs.
type pipeBuf struct {
	sps   []mesh.SegPath
	arena *core.SegArenaGroup
}

// chunkResult hands one selected chunk from the select stage to the
// encode stage; the paths live in buf.sps[:hi-lo].
type chunkResult struct {
	buf    *pipeBuf
	lo, hi int
}

func (s *Server) getPipeBuf() *pipeBuf {
	if b, ok := s.pipe.Get().(*pipeBuf); ok {
		return b
	}
	return &pipeBuf{
		sps:   make([]mesh.SegPath, s.cfg.BatchChunk),
		arena: &core.SegArenaGroup{},
	}
}

func (s *Server) putPipeBuf(b *pipeBuf) { s.pipe.Put(b) }

// streamBatchSegWire is the wire2 batch path: chunks are selected and
// encoded in order with the same streams as one whole-batch Select, so
// the bytes equal serial.EncodeWireSeg of SelectAllSeg at the same
// base; only the overlap and the memory source differ. A mid-stream
// deadline truncates the response before the checksum trailer, so a
// partial flush can never be mistaken for a complete stream.
func (s *Server) streamBatchSegWire(ctx context.Context, w http.ResponseWriter, kq *kreq, pairs []mesh.Pair, base uint64) (code int, routes, edges int64) {
	w.Header().Set("Content-Type", serial.WireSegContentType)
	w.WriteHeader(http.StatusOK)
	enc, err := serial.AcquireWireSegEncoder(w, s.m, len(pairs))
	if err != nil {
		return http.StatusInternalServerError, 0, 0
	}
	defer enc.Release()
	flusher, _ := w.(http.Flusher)
	hooks := s.segLiveHooks()

	// results is unbuffered — the handoff IS the pipeline boundary; the
	// free list's depth of two is the entire look-ahead budget.
	results := make(chan chunkResult)
	free := make(chan *pipeBuf, 2)
	stop := make(chan struct{})
	free <- s.getPipeBuf()
	free <- s.getPipeBuf()

	go func() {
		defer close(results)
		for lo := 0; lo < len(pairs); lo += s.cfg.BatchChunk {
			if s.chunkHook != nil {
				s.chunkHook(lo)
			}
			if ctx.Err() != nil {
				return // fewer routes than pairs → 504, no trailer
			}
			hi := lo + s.cfg.BatchChunk
			if hi > len(pairs) {
				hi = len(pairs)
			}
			var buf *pipeBuf
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			buf.arena.Reset() // reclaims the PREVIOUS tenant chunk's slabs
			s.selectChunk(kq, core.Request{Pairs: pairs[lo:hi], Base: base + uint64(lo), Arena: buf.arena, Segs: buf.sps[:hi-lo], Hooks: hooks})
			select {
			case results <- chunkResult{buf: buf, lo: lo, hi: hi}:
			case <-stop:
				s.putPipeBuf(buf)
				return
			}
		}
	}()

	encFailed := false
	for res := range results {
		if !encFailed {
			for _, sp := range res.buf.sps[:res.hi-res.lo] {
				if err := enc.Encode(sp); err != nil {
					encFailed = true
					close(stop) // selection of the next chunk is wasted work
					break
				}
				routes++
				edges += int64(sp.Len())
			}
			if !encFailed && flusher != nil {
				flusher.Flush()
			}
		}
		free <- res.buf // cap 2, two bufs total: never blocks
	}
	// Selection has exited (results is closed); reclaim the free list.
	close(free)
	for buf := range free {
		s.putPipeBuf(buf)
	}
	switch {
	case encFailed:
		return http.StatusInternalServerError, routes, edges
	case routes != int64(len(pairs)):
		return http.StatusGatewayTimeout, routes, edges // truncated: no trailer
	}
	if err := enc.Close(); err != nil {
		return http.StatusInternalServerError, routes, edges
	}
	return http.StatusOK, routes, edges
}

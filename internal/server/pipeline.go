// The batch serve path: selection and rendering of a /v1/batch request
// overlap, with all per-chunk memory drawn from pools, so a
// steady-state request holds O(BatchChunk) live selection bytes no
// matter how many pairs the batch carries.
//
// Stages (DESIGN.md §14):
//
//	select  one goroutine walks the chunks in order, leasing a pipeBuf
//	        (chunk-sized SegPath slice + slab arena group) per chunk and
//	        routing pairs[lo:hi] into it with the global stream ids;
//	sink    the handler goroutine receives finished chunks in order and
//	        renders them before handing the pipeBuf back for reuse: the
//	        wire2 sink frames them with the pooled OMP2 encoder and
//	        flushes, the JSON sink expands them into pooled hop rows and
//	        writes nothing until the batch is complete.
//
// Backpressure is the free list: exactly two pipeBufs circulate, so
// selection runs at most one chunk ahead of the sink and a slow
// client stalls routing instead of ballooning memory. Slab lifetime
// rule: every SegPath in a pipeBuf aliases its arena group and dies at
// the Reset that precedes the buffer's next lease — no SegPath escapes
// its chunk (the live tracker books during selection; the sinks only
// read, and the JSON sink copies hops out).
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
// sink; the paths live in buf.sps[:hi-lo].
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

// selectBatch is the daemon's one batch loop. It routes pairs chunk by
// chunk with streams base+i — the same paths as one whole-batch Select
// at that base — booking every path in the live tracker during
// selection, and calls sink on the handler goroutine with each chunk's
// paths, in order. The paths die when sink returns.
//
// The request context is consulted at the top of every chunk, so a
// request whose deadline passes mid-batch stops in bounded time; the
// routes it returns then fall short of len(pairs). A sampling server
// refreshes the request's snapshot per chunk, so selection is
// deterministic within a chunk while later chunks see the load earlier
// ones booked. The request takes one snapshot buffer from s.snaps for
// all its chunks and hands it back when selection ends; the cache
// holds idle buffers only weakly, so they are reused between GCs and
// never stay resident.
//
// routes and edges count the paths sink accepted; err is the first
// sink error, which also stops selection.
func (s *Server) selectBatch(ctx context.Context, pairs []mesh.Pair, base uint64, sink func([]mesh.SegPath) error) (routes, edges int64, err error) {
	// results is unbuffered — the handoff IS the pipeline boundary; the
	// free list's depth of two is the entire look-ahead budget.
	results := make(chan chunkResult)
	free := make(chan *pipeBuf, 2)
	stop := make(chan struct{})
	free <- s.getPipeBuf()
	free <- s.getPipeBuf()

	go func() {
		defer close(results)
		hooks := core.Hooks{Seg: func(pkt int, _ mesh.Pair, sp mesh.SegPath, _ core.Stats) {
			s.live.AddSegPath(s.m, uint64(pkt), sp)
		}}
		var snap *[]int64
		defer func() {
			if snap != nil {
				s.snaps.put(snap)
			}
		}()
		for lo := 0; lo < len(pairs); lo += s.cfg.BatchChunk {
			if s.chunkHook != nil {
				s.chunkHook(lo)
			}
			if ctx.Err() != nil {
				return // fewer routes than pairs: the handler answers 504
			}
			hi := min(lo+s.cfg.BatchChunk, len(pairs))
			var buf *pipeBuf
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			buf.arena.Reset() // reclaims the PREVIOUS tenant chunk's slabs
			req := core.Request{Pairs: pairs[lo:hi], Base: base + uint64(lo), Workers: s.cfg.BatchWorkers, Arena: buf.arena, Segs: buf.sps[:hi-lo], Hooks: hooks}
			if s.cfg.KSample > 1 {
				if snap == nil {
					snap = s.snaps.get()
				}
				req.Snapshot = s.live.SnapshotInto(*snap)
			}
			if _, ks := s.sel.Select(req); req.Snapshot != nil {
				s.kc.add(ks)
			}
			select {
			case results <- chunkResult{buf: buf, lo: lo, hi: hi}:
			case <-stop:
				s.putPipeBuf(buf)
				return
			}
		}
	}()

	for res := range results {
		if err == nil {
			sps := res.buf.sps[:res.hi-res.lo]
			if err = sink(sps); err != nil {
				close(stop) // selection of the next chunk is wasted work
			} else {
				routes += int64(len(sps))
				for _, sp := range sps {
					edges += int64(sp.Len())
				}
			}
		}
		free <- res.buf // cap 2, two bufs total: never blocks
	}
	// Selection has exited (results is closed); reclaim the free list.
	close(free)
	for buf := range free {
		s.putPipeBuf(buf)
	}
	return routes, edges, err
}

// batchWire2 streams the batch as OMP2: the bytes equal
// serial.EncodeWireSeg of SelectAllSeg at the same base, flushed chunk
// by chunk. The 200 goes out before selection starts, so a mid-stream
// deadline truncates the response before the checksum trailer, and a
// partial flush can never be mistaken for a complete stream.
func (s *Server) batchWire2(ctx context.Context, w http.ResponseWriter, pairs []mesh.Pair, base uint64) (code int, routes, edges int64) {
	w.Header().Set("Content-Type", serial.WireSegContentType)
	w.WriteHeader(http.StatusOK)
	enc, err := serial.AcquireWireSegEncoder(w, s.m, len(pairs))
	if err != nil {
		return http.StatusInternalServerError, 0, 0
	}
	defer enc.Release()
	flusher, _ := w.(http.Flusher)
	routes, edges, err = s.selectBatch(ctx, pairs, base, func(sps []mesh.SegPath) error {
		for _, sp := range sps {
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	switch {
	case err != nil:
		return http.StatusInternalServerError, routes, edges
	case routes != int64(len(pairs)):
		return http.StatusGatewayTimeout, routes, edges // truncated: no trailer
	}
	if err := enc.Close(); err != nil {
		return http.StatusInternalServerError, routes, edges
	}
	return http.StatusOK, routes, edges
}

// batchRows expands each chunk's run-length paths into rows as it
// arrives. It writes nothing on success — the front renders the JSON
// once the whole batch is selected — so a deadline that fires between
// chunks answers the 504 error envelope, never a partial 200.
func (s *Server) batchRows(ctx context.Context, w http.ResponseWriter, pairs []mesh.Pair, base uint64, rows *HopRows) (code int, routes, edges int64) {
	routes, edges, _ = s.selectBatch(ctx, pairs, base, func(sps []mesh.SegPath) error {
		for _, sp := range sps {
			rows.Append(s.m, sp)
		}
		return nil
	})
	if routes != int64(len(pairs)) {
		WriteErr(w, http.StatusGatewayTimeout, "deadline exceeded after %d of %d pairs", routes, len(pairs))
		return http.StatusGatewayTimeout, 0, 0
	}
	return http.StatusOK, routes, edges
}

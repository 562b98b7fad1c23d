package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/server"
)

// The gateway's one fan-in. A shard's wire2 records are byte-identical
// to the single-daemon encoding at the same streams (obliviousness +
// canonical varints), so the gateway never decodes a shard to merge
// it: each shard is fetched through the client's raw variant (framing
// validated, checksum verified, nothing decoded), parked in a pooled
// buffer until its turn, and spliced into one merged stream whose
// header and trailer serial.WireSegSplicer rewrites on the fly.
//
// wire2 responses splice straight into the response writer. json
// batches and single routes splice into a pooled buffer and decode
// that one verified stream to render their rows, so nothing reaches
// the client until every shard is in.
//
// Ordering and backpressure: shard i's bytes are written as soon as
// shards 0..i−1 have been — on wire2 the header (and so TTFB) goes out
// before any shard lands. Out-of-order completions park; a sliding
// window of Config.SpliceDepth gates fetch starts so a straggling
// early shard cannot make the gateway hold the whole batch in memory.
//
// Failure shape on wire2: the 200 header is committed before the
// shards are, so a terminal mid-stream failure cannot become an error
// status on the wire. The stream is truncated without its checksum
// trailer — the client's decoder fails loudly — exactly the daemon's
// pipelined deadline behavior, and the mapped status lands in the
// gateway's own books.

// errSpliceWrite marks a failure on the write side of the splice: the
// client went away, or a backend smuggled surplus records past its
// shard count. Either way the merged stream is dead.
var errSpliceWrite = errors.New("gateway: splice write failed")

// rawShard is one shard's verified payload parked until its flush
// turn, plus its books.
type rawShard struct {
	buf    bytes.Buffer
	rb     obliviousmesh.RawBatch
	parked bool // counted into the parked gauges; flush must uncount
}

// rawShardPool recycles shard buffers across requests; a released
// shard keeps its capacity, so a steady batch size stops allocating
// after the first few requests.
var rawShardPool = sync.Pool{New: func() any { return new(rawShard) }}

func acquireRawShard() *rawShard {
	sh := rawShardPool.Get().(*rawShard)
	sh.buf.Reset()
	sh.rb = obliviousmesh.RawBatch{}
	sh.parked = false
	return sh
}

func releaseRawShard(sh *rawShard) { rawShardPool.Put(sh) }

// gatherPool recycles the whole-stream buffers of the json and route
// fan-ins.
var gatherPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// shardCount splits n pairs over the healthy rotation: one contiguous
// shard per healthy backend, at most n, none for an empty batch.
func (g *Gateway) shardCount(n int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	k := g.healthyCount()
	if k == 0 {
		return 0, errNoBackends
	}
	return min(k, n), nil
}

// spliceBatch serves one wire2 batch by splicing straight into the
// response. It owns the whole response (header included) and returns
// the status code for the gateway's books plus the routes/edges it
// actually flushed.
func (g *Gateway) spliceBatch(ctx context.Context, w http.ResponseWriter, b *server.Batch) (code int, routes, edges int64) {
	// Pre-flight: past this point the 200 is committed, so an empty
	// rotation must 503 now, while it still can.
	k, err := g.shardCount(len(b.Pairs))
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	w.Header().Set("Content-Type", serial.WireSegContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	routes, edges, err = g.spliceShards(ctx, w, flusher, b, b.Pairs, b.Base, k)
	if err != nil {
		return fanoutErrCode(ctx, err), routes, edges
	}
	g.spliceBatches.Add(1)
	return http.StatusOK, routes, edges
}

// gatherRows is the json and /v1/route fan-in: it splices every shard
// into a pooled buffer, decodes that one verified stream and appends
// each path's hops to rows — the daemon's row renderer, so the JSON
// bytes are the daemon's own. It commits nothing until every shard is
// in, so a failure keeps its error status.
func (g *Gateway) gatherRows(ctx context.Context, w http.ResponseWriter, lease *server.Batch,
	pairs []obliviousmesh.Pair, base uint64, rows *server.HopRows) (code int, routes, edges int64) {
	k, err := g.shardCount(len(pairs))
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	buf := gatherPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer gatherPool.Put(buf)
	if _, edges, err = g.spliceShards(ctx, buf, nil, lease, pairs, base, k); err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	dec, err := serial.NewWireSegDecoder(bytes.NewReader(buf.Bytes()), g.m, len(pairs))
	for i := 0; err == nil && i < len(pairs); i++ {
		var sp obliviousmesh.SegPath
		if sp, err = dec.NextLent(); err == nil {
			rows.Append(g.m, sp)
		}
	}
	if err == nil {
		err = dec.Close()
	}
	if err != nil {
		return g.writeFanoutErr(ctx, w, err), 0, 0
	}
	return http.StatusOK, int64(len(pairs)), edges
}

// spliceShards is the in-order shard loop: it fans pairs out across k
// shards with the i·n/k split, fetches each with fetchShardRaw and
// writes them strictly in order into dst as one OMP2 stream — header,
// verified records, trailer — byte-identical to a single daemon's.
// flusher, when set, pushes the header and then every shard to the
// client as soon as it is written. Write-side failures wrap
// errSpliceWrite; anything else is the first shard's fetch error.
func (g *Gateway) spliceShards(ctx context.Context, dst io.Writer, flusher http.Flusher,
	lease *server.Batch, pairs []obliviousmesh.Pair, base uint64, k int) (routes, edges int64, err error) {
	n := len(pairs)
	spl, err := serial.NewWireSegSplicer(dst, g.m, n)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", errSpliceWrite, err)
	}
	if flusher != nil {
		flusher.Flush() // TTFB is the header, not the slowest shard
	}
	depth := g.cfg.SpliceDepth

	// sctx kills the remaining fetches when the flusher aborts, so no
	// shard goroutine is left blocked on a gate or a slow backend.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	slots := make([]*rawShard, k)
	errs := make([]error, k)
	done := make([]chan struct{}, k)
	gates := make([]chan struct{}, k)
	for i := range done {
		done[i] = make(chan struct{})
		gates[i] = make(chan struct{})
	}
	for i := 0; i < depth && i < k; i++ {
		close(gates[i]) // the first window needs no predecessor
	}

	var flushCursor atomic.Int64 // next shard index to flush
	var parkedBytes atomic.Int64 // bytes sitting in parked shards now
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			select {
			case <-gates[i]: // bounded-depth window: wait for shard i−depth to flush
			case <-sctx.Done():
				errs[i] = sctx.Err()
				close(done[i])
				return
			}
			sh, err := g.fetchShardRaw(sctx, lease, pairs[lo:hi], base+uint64(lo))
			if err == nil && int64(i) > flushCursor.Load() {
				// Completed before its turn: parked until the cursor
				// arrives. The race with the cursor is benign — these are
				// accounting gauges, not synchronization.
				sh.parked = true
				g.spliceParkedShards.Add(1)
				pb := parkedBytes.Add(int64(sh.buf.Len()))
				for {
					peak := g.spliceParkedPeak.Load()
					if pb <= peak || g.spliceParkedPeak.CompareAndSwap(peak, pb) {
						break
					}
				}
			}
			slots[i], errs[i] = sh, err
			close(done[i])
		}(i, lo, hi)
	}

	for i := 0; i < k; i++ {
		<-done[i] // fetches are ctx-bounded, so this always resolves
		if errs[i] != nil {
			err = errs[i]
			break
		}
		sh := slots[i]
		if serr := spl.Splice(sh.buf.Bytes()); serr != nil {
			// The stream is dead: truncate without the trailer.
			err = fmt.Errorf("%w: %v", errSpliceWrite, serr)
			break
		}
		routes += int64(sh.rb.Paths)
		edges += sh.rb.Edges
		g.spliceBytes.Add(sh.rb.Bytes)
		if sh.parked {
			parkedBytes.Add(-int64(sh.buf.Len()))
		}
		slots[i] = nil
		releaseRawShard(sh)
		flushCursor.Store(int64(i + 1))
		if i+depth < k {
			close(gates[i+depth]) // admit the next shard into the window
		}
		if flusher != nil {
			flusher.Flush() // shard i is on the wire before i+1 lands
		}
	}
	if err != nil {
		// Abort: stop the remaining fetches, then recycle whatever they
		// parked. wg.Wait also orders the slots reads after every
		// goroutine's writes.
		cancel()
		wg.Wait()
		for i, sh := range slots {
			if sh != nil {
				slots[i] = nil
				releaseRawShard(sh)
			}
		}
		return routes, edges, err
	}
	if cerr := spl.Close(); cerr != nil {
		return routes, edges, fmt.Errorf("%w: %v", errSpliceWrite, cerr)
	}
	return routes, edges, nil
}

// fetchShardRaw routes one contiguous shard into verified payload
// bytes in a pooled buffer, walking the healthy rotation until a
// backend answers: a sub-request that fails past its client's
// transient retries demotes the backend (the prober re-admits it when
// it recovers) and the whole shard re-fans to the next candidate.
// Shard boundaries are provisional — what is pinned is that pair i
// routes with stream base+i, whichever backend ends up serving it, so
// membership changes mid-request cannot change a single byte.
func (g *Gateway) fetchShardRaw(ctx context.Context, lease *server.Batch, pairs []obliviousmesh.Pair, base uint64) (*rawShard, error) {
	tried := make(map[*backend]bool)
	var lastErr error
	for range g.backends {
		b := g.pickBackend(tried, nil)
		if b == nil {
			break
		}
		sh, err := g.collectShard(ctx, b, tried, lease, pairs, base)
		if err == nil {
			return sh, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, err
		}
		var herr *obliviousmesh.HTTPError
		if errors.As(err, &herr) && herr.StatusCode < 500 && herr.StatusCode != http.StatusTooManyRequests {
			// The cluster is identical, so another backend would reject
			// the sub-request the same way. Fail loudly.
			return nil, err
		}
		b.healthy.Store(false)
		g.refans.Add(1)
		tried[b] = true
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, errNoBackends
}

// collectShard runs one shard sub-request against b, hedging onto a
// second backend if b straggles past the hedge delay. First complete
// answer wins; the loser's context is canceled on return (the deferred
// cancel fires before the drainer starts receiving, so a straggler
// aborts promptly instead of running to completion), and its buffer —
// like every failed attempt's — goes back to the pool, a hedge loser's
// bytes booked as hedge waste.
func (g *Gateway) collectShard(ctx context.Context, b *backend, tried map[*backend]bool,
	lease *server.Batch, pairs []obliviousmesh.Pair, base uint64) (*rawShard, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		sh      *rawShard
		err     error
		elapsed time.Duration
	}
	ch := make(chan result, 2)
	attempt := func(b *backend) {
		go func() {
			t0 := time.Now()
			// Partial bytes of a failed attempt ride along in sh so the
			// discard can account and recycle them.
			sh := acquireRawShard()
			rb, err := b.client.RouteBatchWire2Raw(cctx, pairs, base, &sh.buf)
			sh.rb = rb
			ch <- result{sh, err, time.Since(t0)}
		}()
	}
	discard := func(sh *rawShard, hedgeLoser bool) {
		if hedgeLoser {
			g.hedgeWasted.Add(int64(sh.buf.Len()))
		}
		releaseRawShard(sh)
	}
	lease.Hold() // attempts read the leased pairs; settled by drainLosers
	attempt(b)
	outstanding := 1

	// drainLosers consumes the attempts still in flight once the race
	// is decided, then settles this call's pairs lease — the attempt
	// goroutines read the pooled pairs, so the lease cannot drop before
	// the last of them resolves. It runs detached: the deferred cancel
	// has already aborted them, so they resolve promptly and their
	// buffers reach discard instead of leaking. Every return path calls
	// it exactly once.
	drainLosers := func(n int, hedgeLoser bool) {
		if n == 0 {
			lease.Release()
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				discard((<-ch).sh, hedgeLoser)
			}
			lease.Release()
		}()
	}

	var timerC <-chan time.Time
	if d := g.hedgeDelay(); d > 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timerC = tm.C
	}

	var firstErr error
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				g.lat.observe(res.elapsed)
				drainLosers(outstanding, true)
				return res.sh, nil
			}
			discard(res.sh, false)
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				drainLosers(0, false) // settles the lease; nothing left to drain
				return nil, firstErr
			}
		case <-timerC:
			timerC = nil
			if b2 := g.pickBackend(tried, b); b2 != nil {
				g.hedges.Add(1)
				outstanding++
				attempt(b2)
			}
		case <-ctx.Done():
			// Attempts killed by the parent deadline are not hedge
			// losers; their bytes are wasted but not to hedging.
			drainLosers(outstanding, false)
			return nil, ctx.Err()
		}
	}
}

// fanoutErrCode maps a fan-out failure onto the daemon's status
// vocabulary: a dead write side → 500, deadline → 504, an empty
// rotation → 503, anything else a backend did to us → 502. On wire2
// the header is already committed, so the code only feeds the
// gateway's books and the client sees a truncated (trailerless)
// stream.
func fanoutErrCode(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, errSpliceWrite):
		return http.StatusInternalServerError
	case ctx.Err() != nil:
		return http.StatusGatewayTimeout
	case errors.Is(err, errNoBackends):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

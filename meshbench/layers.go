package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/serial"
)

// daemonBatchWorkers is server.Config.BatchWorkers' default: the
// fan-out one batch request's selection runs with.
const daemonBatchWorkers = 4

// maxRouteReplay caps how many single routes the route-hot replay
// re-selects.
const maxRouteReplay = 20000

// replay holds per-route costs of single layers, measured by calling
// each layer's public functions on the run's own inputs and responses
// while the system under test is idle.
type replay struct {
	selectNS, selectBytes, selectAllocs float64 // core
	encodeNS, decodeNS, scanNS          float64 // serial
	wireBytes                           float64 // serial: response bytes per route
	accountNS                           float64 // metrics: LiveLoads accounting
	snapshotNS                          float64 // core (k-sample): one LiveLoads.SnapshotInto
}

// memDelta times fn and reports the heap bytes and allocations it made.
func memDelta(fn func()) (elapsed time.Duration, bytes, allocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

func perRoute(d time.Duration, routes int) float64 {
	if routes == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(routes)
}

// replayBatches re-selects every batch of the input with the engine a
// daemon's pipelined wire2 path runs, then encodes and books the paths
// as the daemon does, and decodes (and, behind a gateway, scans) the
// captured responses as the client (and the gateway) do. live is a
// daemon's tracker: its shard count and, for k-sample, its loads.
func replayBatches(w workload, in *inputs, caps []captured, live *metrics.LiveLoads) (replay, error) {
	var r replay
	m := in.m
	sel, err := core.NewSelector(m, core.Options{Variant: core.Variant2D, Seed: routeSeed, KSample: w.ksample})
	if err != nil {
		return r, err
	}
	ag := &core.SegArenaGroup{}
	out := make([]mesh.SegPath, w.batch)
	var snap []int64
	if w.ksample > 1 {
		snap = make([]int64, m.EdgeSpace())
		const reps = 20
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			live.SnapshotInto(snap)
		}
		r.snapshotNS = float64(time.Since(t0).Nanoseconds()) / reps
	}
	selectBatch := func(pairs []mesh.Pair) []mesh.SegPath {
		ag.Reset()
		n := len(pairs)
		if snap != nil {
			sel.SelectChunkKSegArenaBase(pairs, snap, 0, 0, n, daemonBatchWorkers, out, ag, core.KSegHooks{})
		} else {
			sel.SelectChunkSegArenaBase(pairs, 0, 0, n, daemonBatchWorkers, out, ag, core.SegHooks{})
		}
		return out[:n]
	}
	routes := 0
	for _, b := range in.batches { // warm the selector's chain cache and arenas
		selectBatch(b)
		routes += len(b)
	}
	el, by, al := memDelta(func() {
		for _, b := range in.batches {
			selectBatch(b)
		}
	})
	r.selectNS, r.selectBytes, r.selectAllocs = perRoute(el, routes), float64(by)/float64(routes), float64(al)/float64(routes)

	ll := metrics.NewLiveLoadsSize(m.EdgeSpace(), live.Shards())
	ll.Reset() // fault the counters in: the daemon's tracker is long warm
	var encode, account time.Duration
	for _, b := range in.batches {
		sps := selectBatch(b)
		t0 := time.Now()
		enc, err := serial.AcquireWireSegEncoder(io.Discard, m, len(sps))
		if err != nil {
			return r, err
		}
		for _, sp := range sps {
			if err := enc.Encode(sp); err != nil {
				return r, err
			}
		}
		if err := enc.Close(); err != nil {
			return r, err
		}
		enc.Release()
		t1 := time.Now()
		for i, sp := range sps {
			ll.AddSegPath(m, uint64(i), sp)
		}
		encode += t1.Sub(t0)
		account += time.Since(t1)
	}
	r.encodeNS, r.accountNS = perRoute(encode, routes), perRoute(account, routes)

	var decode, scan time.Duration
	capRoutes, capBytes := 0, 0
	for _, c := range caps {
		n := len(in.batches[c.idx%len(in.batches)])
		capRoutes += n
		capBytes += len(c.body)
		t0 := time.Now()
		dec, err := serial.NewWireSegDecoder(bytes.NewReader(c.body), m, n)
		if err != nil {
			return r, err
		}
		for i := 0; i < n; i++ {
			if _, err := dec.Next(); err != nil {
				return r, err
			}
		}
		if err := dec.Close(); err != nil {
			return r, err
		}
		decode += time.Since(t0)
		if w.gateway {
			t0 = time.Now()
			if err := scanPayload(m, c.body, n); err != nil {
				return r, err
			}
			scan += time.Since(t0)
		}
	}
	r.decodeNS, r.scanNS = perRoute(decode, capRoutes), perRoute(scan, capRoutes)
	if capRoutes > 0 {
		r.wireBytes = float64(capBytes) / float64(capRoutes)
	}
	return r, nil
}

// scanPayload feeds the records of one wire2 response (between the
// magic+count header and the trailer) through a WireSegRawScanner, the
// validator the gateway's splice runs on every shard.
func scanPayload(m *mesh.Mesh, body []byte, n int) error {
	const magic = 4
	if len(body) < magic {
		return fmt.Errorf("wire2 response of %d bytes", len(body))
	}
	_, k := binary.Uvarint(body[magic:])
	if k <= 0 {
		return fmt.Errorf("wire2 response: bad count varint")
	}
	sc := serial.NewWireSegRawScanner(m, n)
	if _, err := sc.Feed(body[magic+k:]); err != nil {
		return err
	}
	if !sc.Done() {
		return fmt.Errorf("wire2 response: scanner stopped after %d of %d paths", sc.Paths(), n)
	}
	return nil
}

// replayRoutes re-selects the run's single routes with the engine the
// daemon's /v1/route runs at k=1 and books them as it does.
func replayRoutes(in *inputs, live *metrics.LiveLoads) (replay, error) {
	var r replay
	m := in.m
	sel, err := core.NewSelector(m, core.Options{Variant: core.Variant2D, Seed: routeSeed})
	if err != nil {
		return r, err
	}
	pairs := in.singles[:min(len(in.singles), maxRouteReplay)]
	paths := make([]mesh.Path, len(pairs))
	for i, p := range pairs { // warm the chain cache
		paths[i] = sel.Path(p.S, p.T, uint64(i))
	}
	el, by, al := memDelta(func() {
		for i, p := range pairs {
			paths[i] = sel.Path(p.S, p.T, uint64(i))
		}
	})
	n := len(pairs)
	r.selectNS, r.selectBytes, r.selectAllocs = perRoute(el, n), float64(by)/float64(n), float64(al)/float64(n)
	ll := metrics.NewLiveLoadsSize(m.EdgeSpace(), live.Shards())
	ll.Reset() // fault the counters in: the daemon's tracker is long warm
	t0 := time.Now()
	for i, p := range paths {
		ll.AddPath(m, uint64(i), p)
	}
	r.accountNS = perRoute(time.Since(t0), n)
	return r, nil
}

// buildRouteTable times core.NewSelector with the compiled routing
// table backend and reports the table's resident bytes.
func buildRouteTable(m *mesh.Mesh) (seconds float64, bytes int64, err error) {
	t0 := time.Now()
	sel, err := core.NewSelector(m, core.Options{Variant: core.Variant2D, Seed: routeSeed, ChainSource: core.ChainSourceTable})
	if err != nil {
		return 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	ts, _ := sel.RouteTableStats()
	return seconds, ts.Bytes, nil
}

// spanStats is what the traced window's spans say about each layer.
type spanStats struct {
	serverDur, serverFirst           []int64
	gatewayDur, gatewaySelf, gwFirst []int64
	backendRT, shardSkew             []int64
	clientOverhead                   []int64

	// Sums for the per-route ledger.
	clientSum, overheadSum, gatewaySelfSum, backendRTSum, serverSum int64
}

func analyzeSpans(spans []span) spanStats {
	var st spanStats
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for _, s := range spans {
		kids := children[s.id]
		switch s.kind {
		case kindServer:
			st.serverDur = append(st.serverDur, s.dur())
			st.serverSum += s.dur()
			if s.firstByte > 0 {
				st.serverFirst = append(st.serverFirst, s.firstByte-s.start)
			}
		case kindBackendRT:
			st.backendRT = append(st.backendRT, s.dur())
			st.backendRTSum += s.dur()
		case kindGateway:
			st.gatewayDur = append(st.gatewayDur, s.dur())
			if s.firstByte > 0 {
				st.gwFirst = append(st.gwFirst, s.firstByte-s.start)
			}
			self := s.dur() - covered(spans, kids, s.start, s.end)
			st.gatewaySelf = append(st.gatewaySelf, self)
			st.gatewaySelfSum += self
			if len(kids) >= 2 {
				lo, hi := spans[kids[0]].dur(), spans[kids[0]].dur()
				for _, k := range kids[1:] {
					lo, hi = min(lo, spans[k].dur()), max(hi, spans[k].dur())
				}
				st.shardSkew = append(st.shardSkew, hi-lo)
			}
		case kindClient:
			st.clientSum += s.dur()
			var outer int64 = -1 // the outermost handler the request reached
			for _, k := range kids {
				outer = max(outer, spans[k].dur())
			}
			if outer >= 0 {
				st.clientOverhead = append(st.clientOverhead, s.dur()-outer)
				st.overheadSum += s.dur() - outer
			}
		}
	}
	return st
}

// covered returns how much of [lo, hi] the spans at idx cover.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, k := range idx {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}

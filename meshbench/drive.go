package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/mesh"
)

// sample is one request's outcome. Closed-loop times run from the
// send; open-loop times from the arrival's due time.
type sample struct {
	lat    time.Duration // until the last path was decoded (and the trailer verified)
	first  time.Duration // until the first path was handed over
	late   time.Duration // open loop: send time minus due time
	routes int
	failed bool
}

// captured is one response kept for verification after the window.
type captured struct {
	idx    int       // request index: selects the batch or the arrival
	body   []byte    // batch: the raw wire2 response
	stream uint64    // single route: the returned stream id
	path   mesh.Path // single route: the returned path
}

// window is what one timed window produced.
type window struct {
	elapsed  time.Duration
	cpu      time.Duration // the process's user+sys CPU time over the window
	samples  []sample
	captures []captured
	slices   []int     // closed loop: the samples of each slice, in order
	speed    hostSpeed // the probes between its slices
}

func (w *window) routes() (n int) {
	for _, s := range w.samples {
		n += s.routes
	}
	return n
}

func (w *window) failed() (n int) {
	for _, s := range w.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// captureEvery picks the deterministic verification sample: request
// indexes that are multiples of it.
const captureEvery = 8

// driver issues the workload's requests through the facade Client.
type driver struct {
	w   workload
	in  *inputs
	sys *system
	tr  *tracer
}

// request sends request idx and fills s; capture keeps the response.
func (d *driver) request(ctx context.Context, idx int, t0 time.Time, s *sample, keep bool) (c captured) {
	c.idx = idx
	var spanID uint64
	var spanStart, firstAt int64
	if d.tr.enabled() {
		spanID, spanStart = d.tr.newID(), d.tr.now()
		ctx = withSpan(ctx, spanID)
	}
	if d.w.batch > 0 {
		pairs := d.in.batches[idx%len(d.in.batches)]
		var buf *bytes.Buffer
		if keep {
			buf = &bytes.Buffer{}
			ctx = withCapture(ctx, buf)
		}
		routes := 0
		err := d.sys.front.RouteBatchSegFunc(ctx, pairs, func(i int, _ obliviousmesh.SegPath) error {
			if i == 0 {
				s.first = time.Since(t0)
				if spanID != 0 {
					firstAt = d.tr.now()
				}
			}
			routes++
			return nil
		})
		s.lat = time.Since(t0)
		if err != nil || routes != len(pairs) {
			s.failed = true
		} else {
			s.routes = routes
		}
		if buf != nil {
			c.body = buf.Bytes()
		}
	} else {
		pr := d.in.pairAt(idx)
		p, stream, err := d.sys.front.Route(ctx, pr.S, pr.T)
		s.lat = time.Since(t0)
		s.first = s.lat
		if err != nil {
			s.failed = true
		} else {
			s.routes = 1
			c.stream, c.path = stream, p
		}
	}
	if spanID != 0 {
		end := d.tr.now()
		if firstAt == 0 {
			firstAt = end
		}
		d.tr.add(span{id: spanID, kind: kindClient, start: spanStart, end: end, firstByte: firstAt, routes: s.routes})
	}
	return c
}

// pairAt is the pair of single-route request idx; a negative idx
// selects warm-up route -idx-1.
func (in *inputs) pairAt(idx int) mesh.Pair {
	if idx < 0 {
		return in.warm[(-idx-1)%len(in.warm)]
	}
	return in.singles[idx%len(in.singles)]
}

// closedLoop runs clients that each send their next request only when
// the previous one completed, and returns when every client has
// finished. With total > 0 it is the untimed warm-up: it stops after
// total requests, keeps no responses, and single routes walk the
// warm-up set. Otherwise it is a timed slice that stops issuing once
// dur has passed; its request indexes start at first.
func (d *driver) closedLoop(ctx context.Context, clients, total int, dur time.Duration, first int) *window {
	warm := total > 0
	var next atomic.Int64
	next.Store(int64(first))
	per := make([]window, clients)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *window) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if warm && i >= total || !warm && !time.Now().Before(deadline) {
					return
				}
				idx := i
				if warm && d.w.batch == 0 {
					idx = -1 - i // single-route warm-up walks the hot set
				}
				var s sample
				keep := !warm && i%captureEvery == 0
				cp := d.request(ctx, idx, time.Now(), &s, keep)
				out.samples = append(out.samples, s)
				if keep && !s.failed {
					out.captures = append(out.captures, cp)
				}
			}
		}(&per[c])
	}
	wg.Wait()
	return merge(per, time.Since(start), cpuTime()-cpu0)
}

// openLoop sends arrival i at its due time through at most senders
// connections, whether or not earlier requests have completed: each
// free sender takes the next arrival and sleeps until it is due. When
// every sender is busy the next arrival goes out late, and latency
// counts from the due time, so the wait a stall imposes on later
// arrivals shows.
func (d *driver) openLoop(ctx context.Context, senders int) *window {
	var next atomic.Int64
	per := make([]window, senders)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(out *window) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(d.in.due) {
					return
				}
				due := start.Add(d.in.due[i])
				sleepUntil(due)
				s := sample{late: time.Since(due)}
				keep := i%captureEvery == 0
				cp := d.request(ctx, i, due, &s, keep)
				out.samples = append(out.samples, s)
				if keep && !s.failed {
					out.captures = append(out.captures, cp)
				}
			}
		}(&per[c])
	}
	wg.Wait()
	return merge(per, time.Since(start), cpuTime()-cpu0)
}

// sleepUntil blocks the calling thread until t in a nanosleep system
// call. The runtime's timers round waits below a millisecond up to a
// whole millisecond, which would let the generator, not the system,
// set open-loop latency.
func sleepUntil(t time.Time) {
	wait := time.Until(t)
	if wait <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(wait))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func merge(per []window, elapsed, cpu time.Duration) *window {
	w := &window{elapsed: elapsed, cpu: cpu}
	for _, p := range per {
		w.samples = append(w.samples, p.samples...)
		w.captures = append(w.captures, p.captures...)
	}
	return w
}

// closed drives one timed closed-loop window of the workload: slices of
// sliceLen, each followed by a host-speed probe that the window's
// elapsed and CPU time leave out. Request indexes run on across slices.
func (d *driver) closed(ctx context.Context, dur time.Duration, pt *probeTable) *window {
	w := &window{}
	for w.elapsed < dur {
		s := d.closedLoop(ctx, capClients(d.w.clients), 0, min(sliceLen, dur-w.elapsed), len(w.samples))
		w.elapsed += s.elapsed
		w.cpu += s.cpu
		w.samples = append(w.samples, s.samples...)
		w.captures = append(w.captures, s.captures...)
		w.slices = append(w.slices, len(s.samples))
		w.speed.unitNS = append(w.speed.unitNS, pt.probe(probeLen))
	}
	return w
}

// warm runs the untimed warm-up so caches and pools fill.
func (d *driver) warm(ctx context.Context) *window {
	n := d.w.warmBatches
	if d.w.batch == 0 {
		n = len(d.in.warm)
	}
	return d.closedLoop(ctx, capClients(d.w.clients), n, 0, 0)
}

package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrShed is returned by Admit when the bounded queue is full; the
// handler answers 429 so the client backs off instead of piling onto
// an already-saturated server.
var ErrShed = errors.New("server: admission queue full")

// Admitter is the bounded-queue admission gate: at most `inflight`
// requests execute at once, at most `queue` more wait for a slot, and
// everything beyond that is shed immediately. Waiters are bounded by
// their request context, so the gate can never block a request past
// its deadline — the two properties (shed, don't queue unboundedly)
// that keep tail latency flat when offered load exceeds capacity.
type Admitter struct {
	sem      chan struct{}
	waiting  int64
	maxQueue int64
}

// NewAdmitter builds a gate with `inflight` execution slots and a
// `queue`-deep waiting room.
func NewAdmitter(inflight, queue int) *Admitter {
	return &Admitter{
		sem:      make(chan struct{}, inflight),
		maxQueue: int64(queue),
	}
}

// Admit blocks until a slot frees, the queue overflows (ErrShed), or
// ctx ends (its error). On nil the caller owns a slot and must call
// Release exactly once.
func (a *Admitter) Admit(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	if atomic.AddInt64(&a.waiting, 1) > a.maxQueue {
		atomic.AddInt64(&a.waiting, -1)
		return ErrShed
	}
	defer atomic.AddInt64(&a.waiting, -1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns the slot Admit granted.
func (a *Admitter) Release() { <-a.sem }

// Waiting returns the current queue depth (for /metrics).
func (a *Admitter) Waiting() int64 { return atomic.LoadInt64(&a.waiting) }

// InFlight returns the number of held slots (for /metrics).
func (a *Admitter) InFlight() int { return len(a.sem) }

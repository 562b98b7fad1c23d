package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for no samples.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(r, 0), len(xs)-1)]
}

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// durations extracts one duration per sample.
func durations(ss []sample, f func(sample) time.Duration) []int64 {
	out := make([]int64, 0, len(ss))
	for _, s := range ss {
		if !s.failed {
			out = append(out, int64(f(s)))
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBlock is the fewest requests in one block of blockQuantile, so
// that a block's p99 has ten samples beyond it.
const minBlock = 1000

// blockQuantile cuts a closed-loop window into blocks of whole
// consecutive slices, each holding at least minBlock requests (a short
// tail joins the last block), and returns the median over the blocks
// of each block's q-quantile latency. A burst on the shared host that
// stalls a few seconds of a run moves a whole-window p99 by more than
// any useful bound; it moves this only if it stalls half the blocks.
// The whole-window p99 is printed beside it.
func blockQuantile(w *window, q float64) int64 {
	var ends []int // end of each block in w.samples
	start, end := 0, 0
	for _, n := range w.slices {
		end += n
		if end-start >= minBlock {
			ends = append(ends, end)
			start = end
		}
	}
	if end > start {
		if len(ends) > 0 {
			ends[len(ends)-1] = end
		} else {
			ends = append(ends, end)
		}
	}
	var qs []float64
	lo := 0
	for _, hi := range ends {
		lat := durations(w.samples[lo:hi], func(s sample) time.Duration { return s.lat })
		qs = append(qs, float64(quantile(lat, q)))
		lo = hi
	}
	return int64(median(qs))
}

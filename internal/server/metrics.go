package server

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/metrics"
)

// ksampleCounters accumulates the sampling stats of every k>1 routing
// request — fed chunk by chunk from core.KStats, read on /metrics.
// All fields are atomics, so feeding and scraping never contend.
type ksampleCounters struct {
	candidates     atomic.Int64
	redrawWins     atomic.Int64
	commitScoreSum atomic.Int64
	firstScoreSum  atomic.Int64
	maxCommitScore atomic.Int64
}

// add folds one engine call's sampling stats into the counters.
func (c *ksampleCounters) add(ks core.KStats) {
	c.candidates.Add(ks.Candidates)
	c.redrawWins.Add(ks.RedrawWins)
	c.commitScoreSum.Add(ks.CommitScoreSum)
	c.firstScoreSum.Add(ks.FirstScoreSum)
	for {
		cur := c.maxCommitScore.Load()
		if ks.MaxCommitScore <= cur || c.maxCommitScore.CompareAndSwap(cur, ks.MaxCommitScore) {
			return
		}
	}
}

// WriteMetrics writes the daemon's own /metrics lines: the LiveLoads
// top-k hot edges with the live congestion, the k-sample stats and the
// routing-table footprint.
func (s *Server) WriteMetrics(_ context.Context, w io.Writer) {
	// Live edge loads: the streaming congestion view of DESIGN.md §7,
	// scraped instead of printed.
	snap := s.live.Snapshot()
	fmt.Fprintf(w, "meshrouted_live_congestion %d\n", metrics.MaxLoad(snap))
	fmt.Fprintf(w, "meshrouted_live_traversals_total %d\n", metrics.SumLoads(snap))
	for rank, el := range metrics.TopLoads(snap, s.cfg.TopK) {
		fmt.Fprintf(w, "meshrouted_edge_load{rank=\"%d\",edge=%q} %d\n",
			rank, s.m.EdgeString(el.Edge), el.Load)
	}

	// Semi-oblivious sampling (KSample > 1): how many candidates were
	// drawn, how often a re-draw beat candidate 0, and the committed
	// score distribution (sum, candidate-0 sum for the avoided
	// congestion, and max).
	if s.cfg.KSample > 1 {
		fmt.Fprintf(w, "meshrouted_ksample_k %d\n", s.cfg.KSample)
		fmt.Fprintf(w, "meshrouted_ksample_candidates_total %d\n", s.kc.candidates.Load())
		fmt.Fprintf(w, "meshrouted_ksample_redraw_wins_total %d\n", s.kc.redrawWins.Load())
		fmt.Fprintf(w, "meshrouted_ksample_commit_score_sum %d\n", s.kc.commitScoreSum.Load())
		fmt.Fprintf(w, "meshrouted_ksample_first_score_sum %d\n", s.kc.firstScoreSum.Load())
		fmt.Fprintf(w, "meshrouted_ksample_commit_score_max %d\n", s.kc.maxCommitScore.Load())
	}

	// Compiled routing table (the default chain source; absent under
	// "none"): no hit/miss dynamics, only the size of the precompiled
	// state.
	if ts, ok := s.sel.RouteTableStats(); ok {
		fmt.Fprintf(w, "meshrouted_route_table_levels %d\n", ts.Levels)
		fmt.Fprintf(w, "meshrouted_route_table_families %d\n", ts.Families)
		fmt.Fprintf(w, "meshrouted_route_table_cells %d\n", ts.Cells)
		fmt.Fprintf(w, "meshrouted_route_table_bytes %d\n", ts.Bytes)
	}
}

package server

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

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

// handleMetrics renders the live counters in a flat text exposition
// (Prometheus-style `name{labels} value` lines): per-endpoint request
// and latency counters, admission-gate gauges, the LiveLoads top-k hot
// edges with the live congestion, and the routing-table footprint. Every
// figure is read with atomic loads while traffic is in flight — the
// scrape is a consistent-enough rolling view, never a stop-the-world.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// WriteEndpointMetrics renders one endpoint's request counters in the
// flat text exposition under the given metric prefix (the daemon uses
// "meshrouted", the gateway "meshgate" — identical line shapes, so
// one set of dashboards reads both).
func WriteEndpointMetrics(w io.Writer, prefix, endpoint string, st metrics.ServerStats) {
	e := func(name string, v int64) {
		fmt.Fprintf(w, "%s_%s{endpoint=%q} %d\n", prefix, name, endpoint, v)
	}
	e("requests_total", st.Requests())
	e("responses_ok_total", st.OK)
	e("responses_client_error_total", st.ClientErrors)
	e("responses_server_error_total", st.ServerErrors)
	e("shed_total", st.Shed)
	e("timeouts_total", st.Timeouts)
	e("requests_in_flight", st.InFlight())
	e("routes_total", st.Routes)
	e("route_edges_total", st.Traversals)
	fmt.Fprintf(w, "%s_latency_avg_seconds{endpoint=%q} %.9f\n",
		prefix, endpoint, st.AvgLatency.Seconds())
	fmt.Fprintf(w, "%s_latency_max_seconds{endpoint=%q} %.9f\n",
		prefix, endpoint, st.MaxLatency.Seconds())
}

func (s *Server) writeMetrics(w io.Writer) {
	WriteEndpointMetrics(w, "meshrouted", "route", s.routeC.Snapshot())
	WriteEndpointMetrics(w, "meshrouted", "batch", s.batchC.Snapshot())

	fmt.Fprintf(w, "meshrouted_admission_in_flight %d\n", s.adm.InFlight())
	fmt.Fprintf(w, "meshrouted_admission_waiting %d\n", s.adm.Waiting())
	fmt.Fprintf(w, "meshrouted_admission_in_flight_max %d\n", s.cfg.MaxInFlight)
	fmt.Fprintf(w, "meshrouted_admission_queue_max %d\n", s.cfg.MaxQueue)
	fmt.Fprintf(w, "meshrouted_draining %d\n", boolGauge(s.draining.Load()))
	fmt.Fprintf(w, "meshrouted_uptime_seconds %.3f\n", time.Since(s.started).Seconds())

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

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

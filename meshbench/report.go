package main

import (
	"fmt"
	"io"
	"time"
)

// layerReport turns a traced run into the per-layer metrics.
type layerReport struct {
	w                workload
	untraced, traced *measured
	open             *measured // the open-loop window; nil without one
	spans            spanStats
	rp               replay
	tableS           float64
	tableBytes       int64
}

func (lr *layerReport) metrics() []metric {
	w, tm, s, rp := lr.w, lr.traced, &lr.spans, lr.rp
	batch, gw, k := w.batch > 0, w.gateway, w.ksample > 1
	c := tm.ctr
	routes := tm.win.routes()
	per := func(x float64) float64 { return x / float64(max(routes, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pms := func(xs []int64, q float64) float64 { return ms(quantile(xs, q)) }
	hits, misses := c["meshrouted_chain_cache_hits_total"], c["meshrouted_chain_cache_misses_total"]
	rts := float64(len(s.backendRT))
	wasted := c["meshgate_hedges_total"] + c["meshgate_refans_total"]
	untracedRate, tracedRate := lr.untraced.routesPerSec(), tm.routesPerSec()
	handlerNS := per(float64(s.serverSum))
	other := handlerNS - rp.selectNS - rp.encodeNS - rp.accountNS

	return []metric{
		{name: "core.select_ns_per_route", unit: "ns", value: rp.selectNS},
		{name: "core.select_bytes_per_route", unit: "B", value: rp.selectBytes},
		{name: "core.select_allocs_per_route", unit: "count", value: rp.selectAllocs},
		{name: "core.ksample_redraw_win_ratio", unit: "ratio", value: ratio(c["meshrouted_ksample_redraw_wins_total"], c["meshrouted_routes_total"]), na: !k},
		{name: "core.snapshot_ns", unit: "ns", value: rp.snapshotNS, na: !k},
		{name: "chaincache.hit_ratio", unit: "ratio", value: ratio(hits, hits+misses)},
		{name: "chaincache.evictions", unit: "count", value: c["meshrouted_chain_cache_evictions_total"]},
		{name: "routetab.build_s", unit: "s", value: lr.tableS},
		{name: "routetab.bytes", unit: "B", value: float64(lr.tableBytes)},
		{name: "serial.encode_ns_per_route", unit: "ns", value: rp.encodeNS, na: !batch},
		{name: "serial.decode_ns_per_route", unit: "ns", value: rp.decodeNS, na: !batch},
		{name: "serial.scan_ns_per_route", unit: "ns", value: rp.scanNS, na: !gw},
		{name: "serial.wire_bytes_per_route", unit: "B", value: rp.wireBytes, na: !batch},
		{name: "metrics.account_ns_per_route", unit: "ns", value: rp.accountNS},
		{name: "server.handler_ms_p50", unit: "ms", value: pms(s.serverDur, 0.50), samples: len(s.serverDur)},
		{name: "server.handler_ms_p99", unit: "ms", value: pms(s.serverDur, 0.99), samples: len(s.serverDur)},
		{name: "server.first_byte_ms_p50", unit: "ms", value: pms(s.serverFirst, 0.50), samples: len(s.serverFirst)},
		{name: "server.admission_waiting_max", unit: "count", value: tm.admission},
		{name: "server.shed", unit: "count", value: float64(tm.st.Shed)},
		{name: "server.timeouts", unit: "count", value: float64(tm.st.Timeouts)},
		{name: "server.traversals_per_route", unit: "hops", value: ratio(float64(tm.st.Traversals), float64(tm.st.Routes))},
		{name: "client.overhead_ms_p50", unit: "ms", value: pms(s.clientOverhead, 0.50), samples: len(s.clientOverhead)},
		{name: "gateway.handler_ms_p50", unit: "ms", value: pms(s.gatewayDur, 0.50), samples: len(s.gatewayDur), na: !gw},
		{name: "gateway.handler_ms_p99", unit: "ms", value: pms(s.gatewayDur, 0.99), samples: len(s.gatewayDur), na: !gw},
		{name: "gateway.self_ms_p50", unit: "ms", value: pms(s.gatewaySelf, 0.50), samples: len(s.gatewaySelf), na: !gw},
		{name: "gateway.backend_rt_ms_p50", unit: "ms", value: pms(s.backendRT, 0.50), samples: len(s.backendRT), na: !gw},
		{name: "gateway.shard_skew_ms_p50", unit: "ms", value: pms(s.shardSkew, 0.50), samples: len(s.shardSkew), na: !gw},
		{name: "gateway.first_byte_ms_p50", unit: "ms", value: pms(s.gwFirst, 0.50), samples: len(s.gwFirst), na: !gw},
		{name: "gateway.useful_fetch_ratio", unit: "ratio", value: ratio(rts-wasted, rts), na: !gw},
		{name: "gateway.hedges", unit: "count", value: c["meshgate_hedges_total"], na: !gw},
		{name: "gateway.refans", unit: "count", value: c["meshgate_refans_total"], na: !gw},
		{name: "gateway.hedge_wasted_bytes", unit: "B", value: c["meshgate_hedge_wasted_bytes_total"], na: !gw},
		{name: "gateway.splice_parked_shards", unit: "count", value: c["meshgate_splice_parked_shards_total"], na: !gw},
		{name: "gateway.splice_parked_bytes_peak", unit: "B", value: tm.ctrAfter["meshgate_splice_parked_bytes_peak"], na: !gw},
		{name: "driver.late_p99_ms", unit: "ms", value: openStat(lr.open, lateness, 0.99), na: lr.open == nil},
		{name: "driver.open_loop_latency_p50_ms", unit: "ms", value: openStat(lr.open, latencies, 0.50), na: lr.open == nil},
		{name: "driver.open_loop_latency_p99_ms", unit: "ms", value: openStat(lr.open, latencies, 0.99), na: lr.open == nil},
		{name: "driver.open_loop_routes_per_s", unit: "1/s", value: openRate(lr.open), na: lr.open == nil},
		{name: "trace.routes_per_s_untraced", unit: "1/s", value: untracedRate},
		{name: "trace.routes_per_s_traced", unit: "1/s", value: tracedRate},
		{name: "trace.overhead_ratio", unit: "ratio", value: 1 - ratio(tracedRate, untracedRate)},
		{name: "ledger.client_ns_per_route", unit: "ns", value: per(float64(s.clientSum))},
		{name: "ledger.client_overhead_ns_per_route", unit: "ns", value: per(float64(s.overheadSum))},
		{name: "ledger.gateway_self_ns_per_route", unit: "ns", value: per(float64(s.gatewaySelfSum)), na: !gw},
		{name: "ledger.backend_rt_ns_per_route", unit: "ns", value: per(float64(s.backendRTSum)), na: !gw},
		{name: "ledger.server_handler_ns_per_route", unit: "ns", value: handlerNS},
		{name: "ledger.server_other_ns_per_route", unit: "ns", value: other},
	}
}

// printLedger prints, for the batch workloads on one daemon and on the
// gateway, where one route's time goes: span time summed over the
// traced window per delivered route, with the daemon's handler split
// into the replayed layer costs and the rest.
func (lr *layerReport) printLedger(out io.Writer) {
	fmt.Fprintf(out, "tracing overhead: %.0f routes/s untraced, %.0f traced (%s windows)\n",
		lr.untraced.routesPerSec(), lr.traced.routesPerSec(), lr.traced.win.elapsed.Round(time.Millisecond))
	if lr.w.batch == 0 || lr.w.ksample > 1 {
		return
	}
	s, rp := &lr.spans, lr.rp
	routes := float64(max(lr.traced.win.routes(), 1))
	ns := func(sum int64) float64 { return float64(sum) / routes }
	row := func(indent int, name string, v float64) {
		fmt.Fprintf(out, "  %*s%-*s %10.0f ns/route\n", indent, "", 38-indent, name, v)
	}
	fmt.Fprintf(out, "where the time goes (%s, traced window, %d routes; span wall time summed per route; replays: one pass on the idle system):\n",
		lr.w.name, int(routes))
	row(0, "client.request", ns(s.clientSum))
	row(2, "client overhead (HTTP, decode)", ns(s.overheadSum))
	if lr.w.gateway {
		row(2, "gateway.handler self", ns(s.gatewaySelfSum))
		row(2, "gateway.backend_rt (all shards)", ns(s.backendRTSum))
	}
	handler := ns(s.serverSum)
	row(2, "server.handler", handler)
	row(4, "core select (replay)", rp.selectNS)
	row(4, "serial encode (replay)", rp.encodeNS)
	row(4, "metrics account (replay)", rp.accountNS)
	row(4, "rest: parse, admission, write", handler-rp.selectNS-rp.encodeNS-rp.accountNS)
	row(0, "serial decode in the client (replay)", rp.decodeNS)
	if lr.w.gateway {
		row(0, "serial scan in the gateway (replay)", rp.scanNS)
	}
}

// openStat is the q-quantile, in ms, of one timing of the open-loop
// window.
func openStat(m *measured, f func(*window) []int64, q float64) float64 {
	if m == nil {
		return 0
	}
	return ms(quantile(f(m.win), q))
}

func openRate(m *measured) float64 {
	if m == nil {
		return 0
	}
	return m.routesPerSec()
}

package gateway

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clusterSums are the backend counters worth adding across the fleet;
// maxMerged are gauges where the cluster figure is the worst member.
var clusterSums = []string{
	"meshrouted_requests_total",
	"meshrouted_responses_ok_total",
	"meshrouted_shed_total",
	"meshrouted_routes_total",
	"meshrouted_route_edges_total",
	"meshrouted_live_traversals_total",
}

var clusterMaxes = []string{
	"meshrouted_live_congestion",
}

// WriteMetrics writes the gateway's own /metrics lines — hedge, re-fan
// and splice counters and membership gauges — plus the merged cluster
// view: every backend is scraped concurrently and its exposition
// folded into per-backend gauges and cluster-summed counters, so one
// scrape of the gateway sees the whole fleet.
func (g *Gateway) WriteMetrics(ctx context.Context, w io.Writer) {
	fmt.Fprintf(w, "meshgate_hedges_total %d\n", g.hedges.Load())
	fmt.Fprintf(w, "meshgate_hedge_wasted_bytes_total %d\n", g.hedgeWasted.Load())
	fmt.Fprintf(w, "meshgate_refans_total %d\n", g.refans.Load())
	fmt.Fprintf(w, "meshgate_splice_batches_total %d\n", g.spliceBatches.Load())
	fmt.Fprintf(w, "meshgate_splice_bytes_total %d\n", g.spliceBytes.Load())
	fmt.Fprintf(w, "meshgate_splice_parked_shards_total %d\n", g.spliceParkedShards.Load())
	fmt.Fprintf(w, "meshgate_splice_parked_bytes_peak %d\n", g.spliceParkedPeak.Load())
	fmt.Fprintf(w, "meshgate_backends %d\n", len(g.backends))
	fmt.Fprintf(w, "meshgate_backends_healthy %d\n", g.healthyCount())

	// Scrape every backend concurrently; a member that cannot answer in
	// time is simply down in this exposition.
	texts := make([]string, len(g.backends))
	errs := make([]error, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			texts[i], errs[i] = b.client.Metrics(sctx)
		}(i, b)
	}
	wg.Wait()

	sums := make(map[string]float64, len(clusterSums))
	maxes := make(map[string]float64, len(clusterMaxes))
	for i, b := range g.backends {
		if errs[i] != nil {
			fmt.Fprintf(w, "meshgate_backend_up{backend=%q} 0\n", b.url)
			continue
		}
		fmt.Fprintf(w, "meshgate_backend_up{backend=%q} 1\n", b.url)
		vals := parseExposition(texts[i])
		fmt.Fprintf(w, "meshgate_backend_requests_total{backend=%q} %.0f\n", b.url, vals["meshrouted_requests_total"])
		fmt.Fprintf(w, "meshgate_backend_routes_total{backend=%q} %.0f\n", b.url, vals["meshrouted_routes_total"])
		fmt.Fprintf(w, "meshgate_backend_in_flight{backend=%q} %.0f\n", b.url, vals["meshrouted_requests_in_flight"])
		fmt.Fprintf(w, "meshgate_backend_congestion{backend=%q} %.0f\n", b.url, vals["meshrouted_live_congestion"])
		for _, name := range clusterSums {
			sums[name] += vals[name]
		}
		for _, name := range clusterMaxes {
			if v := vals[name]; v > maxes[name] {
				maxes[name] = v
			}
		}
	}
	for _, name := range clusterSums {
		fmt.Fprintf(w, "meshgate_cluster_%s %.0f\n", strings.TrimPrefix(name, "meshrouted_"), sums[name])
	}
	for _, name := range clusterMaxes {
		fmt.Fprintf(w, "meshgate_cluster_%s %.0f\n", strings.TrimPrefix(name, "meshrouted_"), maxes[name])
	}
}

// parseExposition folds a flat text exposition into values summed by
// bare metric name: labels are stripped, so the per-endpoint
// `meshrouted_requests_total{endpoint="batch"}` lines add up into one
// `meshrouted_requests_total` figure. Malformed lines are skipped —
// a scrape merger must not die on one odd line.
func parseExposition(text string) map[string]float64 {
	vals := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		name, num := line[:sp], line[sp+1:]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		vals[name] += v
	}
	return vals
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	obliviousmesh "obliviousmesh"
)

// scrapedNames are the only /metrics series the benchmark reads.
// Labels are stripped and values summed, so per-endpoint series add up.
// A series the program does not export (chain-cache counters under a
// table backend, k-sample counters at k=1) reads 0.
var scrapedNames = map[string]bool{
	"meshrouted_routes_total":                true,
	"meshrouted_chain_cache_hits_total":      true,
	"meshrouted_chain_cache_misses_total":    true,
	"meshrouted_chain_cache_evictions_total": true,
	"meshrouted_ksample_redraw_wins_total":   true,
	"meshrouted_admission_waiting":           true,

	"meshgate_routes_total":               true,
	"meshgate_hedges_total":               true,
	"meshgate_refans_total":               true,
	"meshgate_hedge_wasted_bytes_total":   true,
	"meshgate_splice_parked_shards_total": true,
	"meshgate_splice_parked_bytes_peak":   true,
}

type counters map[string]float64

// sub returns the per-name difference c - before.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

func (c counters) String() string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, k := range names {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.0f", k, c[k])
	}
	return sb.String()
}

func parseCounters(text string, into counters) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		if !scrapedNames[name] {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			into[name] += v
		}
	}
}

// scrape sums the listed series over the daemons' and the gateway's
// /metrics, read through the facade Client.
func (s *system) scrape(ctx context.Context) (counters, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	c := counters{}
	all := append([]*obliviousmesh.Client(nil), s.scrapes...)
	if s.gwScrape != nil {
		all = append(all, s.gwScrape)
	}
	for _, cl := range all {
		text, err := cl.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		parseCounters(text, c)
	}
	return c, nil
}

// sampleAdmission polls the daemons' admission-waiting gauge every
// interval until stop closes, then returns the largest reading.
func (s *system) sampleAdmission(interval time.Duration, stop <-chan struct{}) float64 {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	peak := 0.0
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
		for _, cl := range s.scrapes {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			text, err := cl.Metrics(ctx)
			cancel()
			if err != nil {
				continue
			}
			c := counters{}
			parseCounters(text, c)
			peak = max(peak, c["meshrouted_admission_waiting"])
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

// TestLoadLoopback hammers the service over loopback with concurrent
// single routes plus JSON and wire2 batches — more than 10k routed
// pairs across >1k requests — and demands the acceptance property:
// below the shed threshold, zero dropped responses, and the /metrics
// counters agree exactly with the client's observed totals.
//
// The matrix covers both chain backends plus a k-sample arm, whose
// books must balance just as
// exactly: semi-oblivious re-draws change which path each packet
// takes, never how many packets or traversals are accounted.
func TestLoadLoopback(t *testing.T) {
	for _, tc := range []struct {
		name    string
		chain   string
		ksample int
	}{
		{"table", "table", 1},
		{"none", "none", 1},
		{"ksample4", "table", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runLoadLoopback(t, tc.chain, tc.ksample)
		})
	}
}

func runLoadLoopback(t *testing.T, chain string, ksample int) {
	m := mesh.MustSquare(2, 16)
	srv, ts := newTestServer(t, Config{
		Mesh: m, Seed: 3,
		ChainSource: chain, KSample: ksample,
		// Generous limits: this test runs below the shed threshold.
		MaxInFlight: 64, MaxQueue: 4096,
		RequestTimeout: 30 * time.Second,
	})

	const (
		workers   = 16
		perWorker = 24
		batchSize = 24
	)
	var (
		wantReqs   = int64(workers * perWorker * 3) // route + json batch + wire2 batch per iteration
		gotRoutes  int64
		gotEdges   int64
		gotReqs    int64
		clientErrs int64
	)
	client := ts.Client()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// One single route.
				s := (w*perWorker + i) % m.Size()
				d := (s + 97) % m.Size()
				blob, _ := json.Marshal(routeRequest{S: s, T: d})
				resp, err := client.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader(blob))
				if err != nil {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&gotReqs, 1)
				if resp.StatusCode != http.StatusOK {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				var rr RouteResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				atomic.AddInt64(&gotRoutes, 1)
				atomic.AddInt64(&gotEdges, int64(len(rr.Path)-1))

				// One JSON batch.
				var breq BatchRequest
				for k := 0; k < batchSize; k++ {
					src := (s + k) % m.Size()
					breq.Pairs = append(breq.Pairs, [2]int{src, (src + 31) % m.Size()})
				}
				bblob, _ := json.Marshal(breq)
				bresp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(bblob))
				if err != nil {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				bbody, _ := io.ReadAll(bresp.Body)
				bresp.Body.Close()
				atomic.AddInt64(&gotReqs, 1)
				if bresp.StatusCode != http.StatusOK {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				var br BatchResponse
				if err := json.Unmarshal(bbody, &br); err != nil {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				for _, p := range br.Paths {
					atomic.AddInt64(&gotRoutes, 1)
					atomic.AddInt64(&gotEdges, int64(len(p)-1))
				}

				// One wire2 batch.
				wresp, err := client.Post(ts.URL+"/v1/batch?format=wire2", "application/json", bytes.NewReader(bblob))
				if err != nil {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				paths, derr := serial.DecodeWireSeg(wresp.Body, m, batchSize)
				wresp.Body.Close()
				atomic.AddInt64(&gotReqs, 1)
				if wresp.StatusCode != http.StatusOK || derr != nil {
					atomic.AddInt64(&clientErrs, 1)
					continue
				}
				for _, p := range paths {
					atomic.AddInt64(&gotRoutes, 1)
					atomic.AddInt64(&gotEdges, int64(p.Len()))
				}
			}
		}(w)
	}
	wg.Wait()

	if clientErrs != 0 {
		t.Fatalf("%d dropped/failed responses below the shed threshold", clientErrs)
	}
	if gotReqs != wantReqs {
		t.Fatalf("request count: %d, want %d", gotReqs, wantReqs)
	}
	wantRoutes := int64(workers*perWorker) * (1 + 2*batchSize)
	if gotRoutes != wantRoutes {
		t.Fatalf("route count: %d, want %d", gotRoutes, wantRoutes)
	}
	if wantRoutes < 10000 {
		t.Fatalf("load test too small: %d routes", wantRoutes)
	}

	// The server's books must agree with the client's observations —
	// request counters, route totals, edge traversals, and the live
	// tracker, all four mutually consistent.
	st := srv.Stats()
	if st.Requests() != gotReqs || st.OK != gotReqs {
		t.Fatalf("server saw %d requests (%d ok), client saw %d", st.Requests(), st.OK, gotReqs)
	}
	if st.Routes != gotRoutes {
		t.Fatalf("server counted %d routes, client observed %d", st.Routes, gotRoutes)
	}
	if st.Traversals != gotEdges {
		t.Fatalf("server counted %d traversals, client observed %d", st.Traversals, gotEdges)
	}
	if live := srv.Live().Total(); live != gotEdges {
		t.Fatalf("live tracker has %d traversals, client observed %d", live, gotEdges)
	}
	if st.Shed != 0 || st.ServerErrors != 0 || st.InFlight() != 0 {
		t.Fatalf("unexpected server-side drops: %+v", st)
	}

	// And /metrics must expose the same totals.
	scraped := scrapeMetrics(t, ts.URL)
	if got := scraped["meshrouted_routes_total_sum"]; got != float64(gotRoutes) {
		t.Fatalf("metrics routes_total %v, client observed %d", got, gotRoutes)
	}
	if got := scraped["meshrouted_live_traversals_total"]; got != float64(gotEdges) {
		t.Fatalf("metrics live_traversals_total %v, client observed %d", got, gotEdges)
	}

	// The k-sample counters must balance too: every routed packet draws
	// exactly k candidates, and the committed score can never exceed the
	// default candidate's. At k=1 the section is absent entirely.
	if ksample <= 1 {
		if _, ok := scraped["meshrouted_ksample_k"]; ok {
			t.Fatal("ksample metrics exposed on a k=1 server")
		}
		return
	}
	if got := scraped["meshrouted_ksample_k"]; got != float64(ksample) {
		t.Fatalf("metrics ksample_k %v, configured %d", got, ksample)
	}
	if got := scraped["meshrouted_ksample_candidates_total"]; got != float64(int64(ksample)*gotRoutes) {
		t.Fatalf("metrics candidates_total %v, want k*routes = %d", got, int64(ksample)*gotRoutes)
	}
	wins := scraped["meshrouted_ksample_redraw_wins_total"]
	if wins < 0 || wins > float64(int64(ksample-1)*gotRoutes) {
		t.Fatalf("metrics redraw_wins_total %v out of [0, (k-1)*routes]", wins)
	}
	if c, f := scraped["meshrouted_ksample_commit_score_sum"], scraped["meshrouted_ksample_first_score_sum"]; c > f {
		t.Fatalf("commit score sum %v exceeds first-candidate sum %v", c, f)
	}
}

var metricLine = regexp.MustCompile(`^(meshrouted_[a-z_]+)(?:\{[^}]*\})? ([0-9.e+-]+)$`)

// scrapeMetrics parses the text exposition into name → value, summing
// lines that differ only in labels into "<name>_sum".
func scrapeMetrics(t testing.TB, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := map[string]float64{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		m := metricLine.FindSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			continue
		}
		out[string(m[1])] = v
		out[string(m[1])+"_sum"] += v
	}
	return out
}

// TestLoadShedding drives the gate past its limits: with every
// execution slot and queue position held, new requests are answered
// 429 promptly — the server sheds instead of queueing unboundedly —
// and the sheds are visible in /metrics.
func TestLoadShedding(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxInFlight: 1, MaxQueue: 1,
		RequestTimeout: 5 * time.Second,
	})
	// Occupy the only execution slot and the only queue position.
	if err := srv.adm.Admit(t.Context()); err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan error, 1)
	go func() {
		err := srv.adm.Admit(t.Context())
		if err == nil {
			srv.adm.Release()
		}
		waiterDone <- err
	}()
	for i := 0; i < 1000 && srv.adm.Waiting() == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	const n = 8
	codes := make(chan int, n)
	elapsed := make(chan time.Duration, n)
	for i := 0; i < n; i++ {
		go func() {
			start := time.Now()
			resp, body := postJSON(t, ts.URL+"/v1/route", routeRequest{S: 0, T: 9})
			_ = body
			codes <- resp.StatusCode
			elapsed <- time.Since(start)
		}()
	}
	shed := 0
	for i := 0; i < n; i++ {
		if code := <-codes; code == http.StatusTooManyRequests {
			shed++
		} else if code != http.StatusOK {
			t.Errorf("unexpected status %d", code)
		}
		if d := <-elapsed; d > 3*time.Second {
			t.Errorf("overloaded request took %v: shedding must be prompt", d)
		}
	}
	if shed < n-1 {
		t.Fatalf("only %d/%d requests shed with the gate saturated", shed, n)
	}

	// Release the slot: the queued waiter must get through.
	srv.adm.Release()
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("queued waiter failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never admitted")
	}

	st := srv.Stats()
	if st.Shed < int64(shed) {
		t.Fatalf("stats count %d sheds, client saw %d", st.Shed, shed)
	}
	scraped := scrapeMetrics(t, ts.URL)
	if scraped["meshrouted_shed_total_sum"] < float64(shed) {
		t.Fatalf("metrics shed_total %v, client saw %d", scraped["meshrouted_shed_total_sum"], shed)
	}
}

// TestDrainCompletesInFlight exercises the SIGTERM sequence at the
// library level: Drain() refuses new work while http.Server.Shutdown
// waits for in-flight requests, which must complete successfully. The
// chunk hook pauses the batch mid-selection so the drain
// deterministically lands while the request is in flight.
func TestDrainCompletesInFlight(t *testing.T) {
	m := mesh.MustSquare(2, 16)
	srv, ts := newTestServer(t, Config{
		Mesh: m, Seed: 1,
		BatchChunk: 64, BatchWorkers: 1,
		RequestTimeout: 30 * time.Second,
	})
	started := make(chan struct{})
	resume := make(chan struct{})
	srv.chunkHook = func(lo int) {
		if lo == 64 { // first chunk done, more to go
			close(started)
			<-resume
		}
	}

	var breq BatchRequest
	for s := 0; s < m.Size(); s++ {
		breq.Pairs = append(breq.Pairs, [2]int{s, (s + 129) % m.Size()})
	}
	blob, _ := json.Marshal(breq)
	inFlight := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(blob))
		if err != nil {
			inFlight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	// The batch is provably mid-selection once the hook fires.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("batch never started")
	}
	if srv.Stats().InFlight() == 0 {
		t.Fatal("paused batch not counted in flight")
	}

	srv.Drain()
	close(resume)
	// New traffic is refused immediately...
	resp, _ := postJSON(t, ts.URL+"/v1/route", routeRequest{S: 0, T: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("route while draining: %d", resp.StatusCode)
	}
	// ...while the in-flight batch completes cleanly.
	select {
	case code := <-inFlight:
		if code != http.StatusOK {
			t.Fatalf("in-flight batch finished with %d during drain", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight batch never finished")
	}
}

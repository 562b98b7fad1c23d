package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/server"
)

// TestGatewaySpliceEquality is the splice pin, two ways at once: the
// zero-copy wire2 response must be byte-identical to a single daemon,
// and to itself when a dead member forces a mid-request re-fan —
// across sharding × sampling regimes × seeds. Every cluster serves
// exactly one batch, so the k-sample regimes see all-zero congestion
// snapshots on every replica (the equality precondition of the golden
// tests).
func TestGatewaySpliceEquality(t *testing.T) {
	for _, k := range []int{1, 4} {
		for _, seed := range []uint64{3, 17} {
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				scfg := server.Config{Seed: seed, BatchChunk: 7}
				if k > 1 {
					scfg = server.Config{Seed: seed, KSample: k}
				}
				body := batchBody(t, testPairs(64, 29), 0)
				ref := startBackend(t, scfg)
				code, want, _ := postBatch(t, ref.URL, "wire2", body)
				if code != http.StatusOK {
					t.Fatalf("reference status %d", code)
				}

				spliceG, spliceGW := startGateway(t, Config{Backends: []string{
					startBackend(t, scfg).URL,
					startBackend(t, scfg).URL,
					startBackend(t, scfg).URL,
				}})
				code, got, _ := postBatch(t, spliceGW.URL, "wire2", body)
				if code != http.StatusOK {
					t.Fatalf("spliced status %d: %s", code, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("spliced bytes differ from single daemon (%d vs %d bytes)", len(got), len(want))
				}
				if n := spliceG.spliceBatches.Load(); n != 1 {
					t.Fatalf("splice_batches_total %d after one wire2 batch", n)
				}

				// A dead member mid-rotation: its shard re-fans to a survivor
				// during the spliced request. For the pure-oblivious regime not
				// one byte changes; for k-sample the survivor's live-load state
				// shifted after its own shard, so the pin is a checksum-valid
				// stream of the right shape.
				dead := startBackend(t, scfg)
				refanG, refanGW := startGateway(t, Config{Backends: []string{
					startBackend(t, scfg).URL,
					dead.URL,
					startBackend(t, scfg).URL,
				}})
				dead.Close()
				code, got, _ = postBatch(t, refanGW.URL, "wire2", body)
				if code != http.StatusOK {
					t.Fatalf("re-fanned splice status %d: %s", code, got)
				}
				if k == 1 {
					if !bytes.Equal(got, want) {
						t.Fatal("re-fanned spliced bytes differ from single daemon")
					}
				} else {
					m := mesh.MustSquare(2, 8)
					sps, err := serial.DecodeWireSeg(bytes.NewReader(got), m, 0)
					if err != nil {
						t.Fatalf("re-fanned spliced stream does not decode: %v", err)
					}
					if len(sps) != 64 {
						t.Fatalf("re-fanned spliced stream has %d paths, want 64", len(sps))
					}
				}
				if n := refanG.refans.Load(); n < 1 {
					t.Fatalf("refans_total %d after a dead member held a shard", n)
				}
			})
		}
	}
}

// stallBasedShards wraps a daemon so every /v1/batch sub-request with
// a nonzero base (i.e. every shard but the first) blocks until release
// closes — the tool for proving the splice streams early shards while
// late ones are still in flight.
func stallBasedShards(t *testing.T, cfg server.Config, release <-chan struct{}) *httptest.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && r.Method == http.MethodPost {
			blob, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(blob))
			var req struct {
				Base uint64 `json:"base"`
			}
			if json.Unmarshal(blob, &req) == nil && req.Base > 0 {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewaySpliceStreamsBeforeLastShard: shard 0's bytes must reach
// the client while shards 1 and 2 are still stalled inside their
// backends — TTFB does not wait on the slowest shard.
func TestGatewaySpliceStreamsBeforeLastShard(t *testing.T) {
	const seed = 13
	scfg := server.Config{Mesh: mesh.MustSquare(2, 8), Seed: seed}
	release := make(chan struct{})
	ts := []*httptest.Server{
		stallBasedShards(t, scfg, release),
		stallBasedShards(t, scfg, release),
		stallBasedShards(t, scfg, release),
	}
	// LIFO: release the stalled handlers before the servers' Close waits
	// on them.
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	_, gw := startGateway(t, Config{
		Backends:     []string{ts[0].URL, ts[1].URL, ts[2].URL},
		DisableHedge: true,
	})

	ref := startBackend(t, scfg)
	body := batchBody(t, testPairs(64, 29), 0)
	code, want, _ := postBatch(t, ref.URL, "wire2", body)
	if code != http.StatusOK {
		t.Fatalf("reference status %d", code)
	}

	// The expected early bytes: the stream header plus shard 0's record
	// region (pairs[0:n/k] — the same i·n/k split the fan-out uses).
	m := mesh.MustSquare(2, 8)
	sps, err := serial.DecodeWireSeg(bytes.NewReader(want), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, k := len(sps), 3
	hdrLen := func(count int) int { return 4 + len(binary.AppendUvarint(nil, uint64(count))) }
	var sub bytes.Buffer
	if err := serial.EncodeWireSeg(&sub, m, sps[:n/k]); err != nil {
		t.Fatal(err)
	}
	payload0 := sub.Len() - hdrLen(n/k) - 8
	wantPrefix := want[:hdrLen(n)+payload0]

	resp, err := http.Post(gw.URL+"/v1/batch?format=wire2", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spliced status %d", resp.StatusCode)
	}
	prefix := make([]byte, len(wantPrefix))
	readDone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(resp.Body, prefix)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		// Shards 1 and 2 are, by construction, still stalled: these bytes
		// could only have come from the ordered flush of shard 0.
		if err != nil {
			t.Fatalf("reading shard 0's bytes: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no bytes reached the client while later shards were stalled — the splice buffered the whole batch")
	}
	if !bytes.Equal(prefix, wantPrefix) {
		t.Fatal("early bytes differ from the single daemon's stream prefix")
	}

	close(release)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if full := append(prefix, rest...); !bytes.Equal(full, want) {
		t.Fatalf("full spliced stream differs from single daemon (%d vs %d bytes)", len(full), len(want))
	}
}

// TestGatewayHedgeLoserCancel is the hedge-loser audit: when the fast
// copy of a hedged shard wins, the straggler's sub-request context
// must be cancelled promptly — not left running to completion — and
// the bytes it had already streamed must land in the wasted-bytes
// counter.
func TestGatewayHedgeLoserCancel(t *testing.T) {
	cfg := server.Config{Mesh: mesh.MustSquare(2, 8), Seed: 7}
	slowSrv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner := slowSrv.Handler()
	release := make(chan struct{})
	canceled := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && r.Method == http.MethodPost {
			// Serve the real stream minus its trailer, flush it so the
			// gateway's raw fetch ingests the payload, then stall until the
			// hedge winner gets this request cancelled.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			blob := rec.Body.Bytes()
			w.Header().Set("Content-Type", serial.WireSegContentType)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(blob[:len(blob)-8])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			select {
			case <-r.Context().Done():
				close(canceled)
			case <-release:
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() {
		select {
		case <-canceled:
		default:
			close(release)
		}
	})
	fast := startBackend(t, server.Config{Seed: 7})

	// backends[0] is the straggler: the single shard lands there first
	// (round-robin starts at 0), hedges onto fast, and fast wins.
	g, gw := startGateway(t, Config{
		Backends:   []string{slow.URL, fast.URL},
		HedgeAfter: 25 * time.Millisecond,
	})
	body := batchBody(t, testPairs(64, 29), 0)
	_, want, _ := postBatch(t, fast.URL, "wire2", body)

	code, got, _ := postBatch(t, gw.URL, "wire2", body)
	if code != http.StatusOK {
		t.Fatalf("hedged batch status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged answer differs from single daemon")
	}
	if n := g.hedges.Load(); n != 1 {
		t.Fatalf("hedges_total %d, want 1", n)
	}

	// The audit proper: the loser must see its context die promptly
	// after the winner's response is already on the wire.
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("hedge loser's sub-request was not cancelled after the winner answered")
	}
	// The loser had streamed its whole payload before stalling; those
	// bytes are booked as hedge waste.
	deadline := time.Now().Add(2 * time.Second)
	for g.hedgeWasted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hedge_wasted_bytes %d after a loser streamed a full payload", g.hedgeWasted.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewaySpliceMetrics: the splice books show up in the merged
// exposition with believable values.
func TestGatewaySpliceMetrics(t *testing.T) {
	cfg := server.Config{Seed: 1}
	g, gw := startGateway(t, Config{Backends: []string{
		startBackend(t, cfg).URL,
		startBackend(t, cfg).URL,
		startBackend(t, cfg).URL,
	}})
	if code, body, _ := postBatch(t, gw.URL, "wire2", batchBody(t, testPairs(64, 29), 0)); code != http.StatusOK {
		t.Fatalf("warm-up batch status %d: %s", code, body)
	}
	resp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(blob)
	for _, line := range []string{
		"meshgate_splice_batches_total 1",
		"meshgate_splice_bytes_total ",
		"meshgate_splice_parked_shards_total ",
		"meshgate_splice_parked_bytes_peak ",
		"meshgate_hedge_wasted_bytes_total 0",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("metrics lack %q:\n%s", line, text)
		}
	}
	if g.spliceBytes.Load() <= 0 {
		t.Fatalf("splice_bytes_total %d after a 64-route batch", g.spliceBytes.Load())
	}
}

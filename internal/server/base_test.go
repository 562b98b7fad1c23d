package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

func samePath(a, b mesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fetchPaths posts req in the given format and returns the decoded hop
// paths, whatever the encoding.
func fetchPaths(t *testing.T, m *mesh.Mesh, url, format string, req BatchRequest) []mesh.Path {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch?format="+format, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("format %s status %d", format, resp.StatusCode)
	}
	switch format {
	case "json":
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		paths := make([]mesh.Path, len(br.Paths))
		for i, row := range br.Paths {
			p := make(mesh.Path, len(row))
			for j, v := range row {
				p[j] = mesh.NodeID(v)
			}
			paths[i] = p
		}
		return paths
	case "wire2":
		sps, err := serial.DecodeWireSeg(resp.Body, m, len(req.Pairs))
		if err != nil {
			t.Fatal(err)
		}
		paths := make([]mesh.Path, len(sps))
		for i, sp := range sps {
			paths[i] = sp.Expand(m)
		}
		return paths
	}
	t.Fatalf("unknown format %q", format)
	return nil
}

// TestBatchBase pins the sharding contract of the "base" field: a
// sub-batch posted with base=lo serves exactly the paths the whole
// batch serves at indexes [lo,hi) — in every encoding, across chunk
// boundaries, through the pipelined wire2 loop. The wire2 shards also
// equal serial.EncodeWireSeg of a local SelectAllSeg's paths at the
// same positions.
func TestBatchBase(t *testing.T) {
	// The pipelined loop is the only wire2 path; the subtest keeps the
	// name it had when a serial loop was tested beside it.
	t.Run("pipelined=true", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Seed: 11, BatchChunk: 7})
		m := srv.Mesh()

		var whole BatchRequest
		for s := 0; s < m.Size(); s++ {
			whole.Pairs = append(whole.Pairs, [2]int{s, (s*29 + 5) % m.Size()})
		}
		n := len(whole.Pairs)
		cuts := []int{0, 1, 13, 14, 40, n} // uneven shards, not chunk-aligned

		for _, format := range []string{"json", "wire2"} {
			want := fetchPaths(t, m, ts.URL, format, whole)
			for c := 0; c+1 < len(cuts); c++ {
				lo, hi := cuts[c], cuts[c+1]
				shard := BatchRequest{Pairs: whole.Pairs[lo:hi], Base: uint64(lo)}
				got := fetchPaths(t, m, ts.URL, format, shard)
				for i := range got {
					if !samePath(got[i], want[lo+i]) {
						t.Fatalf("format %s shard [%d,%d): path %d differs from whole batch", format, lo, hi, lo+i)
					}
				}
			}
		}

		local := core.MustNewSelector(m, core.Options{Variant: core.Variant2D, Seed: 11})
		pairs := make([]mesh.Pair, n)
		for i, pr := range whole.Pairs {
			pairs[i] = mesh.Pair{S: mesh.NodeID(pr[0]), T: mesh.NodeID(pr[1])}
		}
		wantSegs, _ := local.SelectAllSeg(pairs)
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			blob, err := json.Marshal(BatchRequest{Pairs: whole.Pairs[lo:hi], Base: uint64(lo)})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/batch?format=wire2", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := serial.EncodeWireSeg(&want, m, wantSegs[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("wire2 shard [%d,%d): bytes differ from the local encoding", lo, hi)
			}
		}
	})
}

// TestBatchBaseKSample is TestBatchBase in the sampling regime a
// sharding gateway relies on: every shard lands on its own fresh
// replica (all-zero congestion snapshot) and the whole batch fits one
// chunk, so candidate 0 commits everywhere and the split reproduces
// the whole-batch answer exactly. (Shards on one shared replica would
// legitimately diverge — earlier shards book load the later ones see.)
func TestBatchBaseKSample(t *testing.T) {
	build := func() (*Server, string) {
		srv, ts := newTestServer(t, Config{Seed: 11, KSample: 4})
		return srv, ts.URL
	}

	srvW, urlW := build()
	var whole BatchRequest
	for s := 0; s < srvW.Mesh().Size(); s++ {
		whole.Pairs = append(whole.Pairs, [2]int{s, (s*37 + 3) % srvW.Mesh().Size()})
	}
	want := fetchPaths(t, srvW.Mesh(), urlW, "wire2", whole)

	n := len(whole.Pairs)
	for _, cut := range [][2]int{{0, 29}, {29, n}} {
		lo, hi := cut[0], cut[1]
		srvS, urlS := build() // fresh replica per shard, like a gateway fan-out
		shard := BatchRequest{Pairs: whole.Pairs[lo:hi], Base: uint64(lo)}
		got := fetchPaths(t, srvS.Mesh(), urlS, "wire2", shard)
		for i := range got {
			if !samePath(got[i], want[lo+i]) {
				t.Fatalf("ksample shard [%d,%d): path %d differs from whole batch", lo, hi, lo+i)
			}
		}
	}
}

func TestBatchBaseTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1})
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Pairs: [][2]int{{0, 1}},
		Base:  MaxStreamBase + 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized base: status %d, body %s", resp.StatusCode, body)
	}
}

func TestMeshEndpointAdvertisesBatchBase(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1})
	resp, err := http.Get(ts.URL + "/v1/mesh")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MeshResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range mr.Features {
		if f == "batch-base" {
			found = true
		}
	}
	if !found {
		t.Fatalf("features %v lack batch-base", mr.Features)
	}
}

// TestHealthzDrainInFlight pins the drain body: while a request holds
// an admission slot, /healthz reports it, so a rollout watcher can
// poll the count down to zero before cutting power.
func TestHealthzDrainInFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 1})
	if err := srv.adm.Admit(t.Context()); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.Release()
	srv.Drain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d", resp.StatusCode)
	}
	if got := buf.String(); !strings.Contains(got, "draining (in flight: 1)") {
		t.Fatalf("drain body %q lacks in-flight count", got)
	}
}

// TestMetricsAdmissionCapacity pins the capacity gauges next to the
// live admission gauges.
func TestMetricsAdmissionCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1, MaxInFlight: 3, MaxQueue: 9})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, line := range []string{
		"meshrouted_admission_in_flight_max 3",
		"meshrouted_admission_queue_max 9",
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics lack %q:\n%s", line, body)
		}
	}
}

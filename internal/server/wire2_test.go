package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

func TestBatchEndpointWire2(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 2, BatchChunk: 5})
	m := srv.Mesh()
	req := BatchRequest{}
	for s := 0; s < 32; s++ {
		req.Pairs = append(req.Pairs, [2]int{s, 63 - s})
	}
	blob, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/batch?format=wire2", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != serial.WireSegContentType {
		t.Fatalf("content type %q", ct)
	}
	sps, err := serial.DecodeWireSeg(resp.Body, m, len(req.Pairs))
	if err != nil {
		t.Fatal(err)
	}

	// Run-length accounting must have landed in the live tracker:
	// exactly one traversal per edge of the batch.
	want := int64(0)
	for _, sp := range sps {
		want += int64(sp.Len())
	}
	if got := srv.Live().Total(); got != want {
		t.Fatalf("live total %d, want %d", got, want)
	}

	// wire2 and JSON modes must serve identical paths (expansion is
	// byte-for-byte the hop selection).
	respJ, bodyJ := postJSON(t, ts.URL+"/v1/batch", req)
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("json status %d", respJ.StatusCode)
	}
	var br batchResponse
	if err := json.Unmarshal(bodyJ, &br); err != nil {
		t.Fatal(err)
	}
	for i, sp := range sps {
		p := sp.Expand(m)
		if len(p) != len(br.Paths[i]) {
			t.Fatalf("path %d: wire2 %d nodes, json %d", i, len(p), len(br.Paths[i]))
		}
		for j := range p {
			if int(p[j]) != br.Paths[i][j] {
				t.Fatalf("path %d: wire2/json mismatch at %d", i, j)
			}
		}
	}

	// The Accept header selects wire2 too.
	areq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(blob))
	areq.Header.Set("Accept", serial.WireSegContentType)
	aresp, err := http.DefaultClient.Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if ct := aresp.Header.Get("Content-Type"); ct != serial.WireSegContentType {
		t.Fatalf("Accept header ignored: content type %q", ct)
	}
	if _, err := serial.DecodeWireSeg(aresp.Body, m, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEndpointSegmentsJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 4, PathFormat: "segments", BatchChunk: 3})
	m := srv.Mesh()
	req := BatchRequest{Pairs: [][2]int{{0, 63}, {5, 5}, {17, 40}}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr segBatchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.SegPaths) != len(req.Pairs) {
		t.Fatalf("%d segpaths for %d pairs", len(sr.SegPaths), len(req.Pairs))
	}
	// Flat records [start, dim0, run0, ...] rebuild into walks from the
	// requested sources to the requested targets.
	for i, rec := range sr.SegPaths {
		if len(rec) == 0 || len(rec)%2 != 1 {
			t.Fatalf("segpath %d: malformed record %v", i, rec)
		}
		sp := mesh.SegPath{Start: mesh.NodeID(rec[0])}
		for k := 1; k < len(rec); k += 2 {
			sp.Segs = append(sp.Segs, mesh.Seg{Dim: int32(rec[k]), Run: int32(rec[k+1])})
		}
		if err := m.ValidateSeg(sp, mesh.NodeID(req.Pairs[i][0]), mesh.NodeID(req.Pairs[i][1])); err != nil {
			t.Fatalf("segpath %d: %v", i, err)
		}
	}
	// The wire format stays per-request regardless of PathFormat.
	blob, _ := json.Marshal(req)
	wresp, err := http.Post(ts.URL+"/v1/batch?format=wire2", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if _, err := serial.DecodeWireSeg(wresp.Body, m, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBatchUnknownFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	blob, _ := json.Marshal(BatchRequest{Pairs: [][2]int{{0, 1}}})
	resp, err := http.Post(ts.URL+"/v1/batch?format=msgpack", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d", resp.StatusCode)
	}
}

func TestConfigPathFormatValidation(t *testing.T) {
	_, err := New(Config{Mesh: mesh.MustSquare(2, 4), PathFormat: "runs"})
	if err == nil {
		t.Fatal("bad PathFormat accepted")
	}
}

func TestMeshEndpointAdvertisesFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/mesh")
	if err != nil {
		t.Fatal(err)
	}
	var mr meshResponse
	err = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mr.PathFormat != "hops" {
		t.Fatalf("default PathFormat %q", mr.PathFormat)
	}
	if got := strings.Join(mr.Formats, ","); got != "json,wire2" {
		t.Fatalf("advertised formats %v, want [json wire2]", mr.Formats)
	}
}

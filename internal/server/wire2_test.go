package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

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
	var br BatchResponse
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

func TestMeshEndpointAdvertisesFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/mesh")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The JSON reply has one representation, so there is no
	// pathFormat to advertise.
	if bytes.Contains(body, []byte("pathFormat")) {
		t.Fatalf("/v1/mesh still advertises pathFormat: %s", body)
	}
	var mr MeshResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(mr.Formats, ","); got != "json,wire2" {
		t.Fatalf("advertised formats %v, want [json wire2]", mr.Formats)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"obliviousmesh/internal/mesh"
)

// BenchmarkServerBatch measures end-to-end served throughput over a
// loopback HTTP connection: one JSON batch request per iteration,
// response fully decoded. b.N iterations reuse one connection, so the
// figure is dominated by routing + encoding, not dialing. Per-route
// cost is reported as routes/op ÷ ns/op.
func BenchmarkServerBatch(b *testing.B) {
	for _, size := range []int{16, 256} {
		b.Run(sizeName(size), func(b *testing.B) {
			benchBatch(b, size)
		})
	}
}

func sizeName(n int) string {
	return "pairs" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func benchBatch(b *testing.B, size int) {
	m := mesh.MustSquare(2, 32)
	srv, err := New(Config{
		Mesh: m, Seed: 7,
		MaxInFlight: 8, MaxQueue: 64,
		RequestTimeout: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var req BatchRequest
	for k := 0; k < size; k++ {
		s := (k * 131) % m.Size()
		req.Pairs = append(req.Pairs, [2]int{s, (s + 517) % m.Size()})
	}
	blob, _ := json.Marshal(req)
	url := ts.URL + "/v1/batch"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "routes/op")
}

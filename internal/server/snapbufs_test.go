package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
)

// TestSnapBufsReuseAndRelease: an idle snapshot buffer is handed out
// again while no GC has run, and a GC frees it, after which get
// allocates a fresh one and drops the dead entry.
func TestSnapBufsReuseAndRelease(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC but the ones below
	c := snapBufs{size: 64}
	a := c.get()
	c.put(a)
	if b := c.get(); b != a {
		t.Fatal("idle buffer not reused before a GC")
	}
	c.put(a)
	a = nil
	runtime.GC()
	runtime.GC()
	if b := c.get(); b == nil || len(*b) != 64 {
		t.Fatalf("get after GC: %v", b)
	}
	if len(c.free) != 0 {
		t.Fatalf("%d entries left in the free list, want the dead one dropped", len(c.free))
	}
}

// TestSnapBufsNotResident: a sampling server that has served k=4
// batches in both formats, k=4 routes and /metrics scrapes holds its
// idle snapshot buffers only weakly — two GCs later every entry of its
// free list is dead, so no idle buffer stays resident. The scrapes,
// taken into reused buffers, report what a fresh snapshot reports.
func TestSnapBufsNotResident(t *testing.T) {
	m := mesh.MustSquare(2, 32)
	srv, err := New(Config{Mesh: m, Seed: 3, KSample: 4, BatchChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, target, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	var batch strings.Builder
	batch.WriteString(`{"pairs":[`)
	for i := 0; i < 128; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, "[%d,%d]", i*37%m.Size(), (i*7919+5)%m.Size())
	}
	batch.WriteString("]}")
	for i := 0; i < 3; i++ {
		serve(http.MethodPost, "/v1/batch?format=wire2", batch.String())
		serve(http.MethodPost, "/v1/batch", batch.String())
		serve(http.MethodPost, "/v1/route", fmt.Sprintf(`{"s":%d,"t":%d}`, i, m.Size()-1-i))
		text := serve(http.MethodGet, "/metrics", "")
		snap := srv.live.Snapshot()
		for _, want := range []string{
			fmt.Sprintf("meshrouted_live_congestion %d\n", metrics.MaxLoad(snap)),
			fmt.Sprintf("meshrouted_live_traversals_total %d\n", metrics.SumLoads(snap)),
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("scrape %d lacks %q:\n%s", i, want, text)
			}
		}
	}

	srv.snaps.mu.Lock()
	n := len(srv.snaps.free)
	srv.snaps.mu.Unlock()
	if n == 0 {
		t.Fatal("no snapshot buffer was handed back")
	}
	runtime.GC()
	runtime.GC()
	srv.snaps.mu.Lock()
	defer srv.snaps.mu.Unlock()
	for i, wp := range srv.snaps.free {
		if wp.Value() != nil {
			t.Errorf("free-list entry %d of %d is still alive after two GCs", i, len(srv.snaps.free))
		}
	}
}

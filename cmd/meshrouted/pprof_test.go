package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestPprofDisabledByDefault: without -pprof the debug routes must not
// exist at all — a stock daemon exposes nothing an operator did not
// ask for.
func TestPprofDisabledByDefault(t *testing.T) {
	baseURL, shutdown := bootDaemon(t, "-side", "4")
	defer shutdown()
	resp, err := http.Get(baseURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof: status %d, want 404", resp.StatusCode)
	}
}

// TestPprofEnabled: with -pprof the index serves, and the service
// endpoints still work through the wrapping mux.
func TestPprofEnabled(t *testing.T) {
	baseURL, shutdown := bootDaemon(t, "-side", "4", "-pprof")
	defer shutdown()

	resp, err := http.Get(baseURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -pprof: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index missing profiles:\n%s", body)
	}

	resp, err = http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz behind pprof mux: status %d", resp.StatusCode)
	}
}

package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	obliviousmesh "obliviousmesh"
)

// TestServeSmoke is the `make serve-smoke` end-to-end gate: it builds
// the real meshrouted binary, boots it on a random port as a separate
// process, routes a batch through the typed client (both transports),
// scrapes /metrics, then delivers a real SIGTERM and requires a clean
// drain (exit 0). Gated behind MESHROUTED_SMOKE=1 because it compiles
// and execs a binary — too heavy for every `go test ./...` run.
func TestServeSmoke(t *testing.T) {
	if os.Getenv("MESHROUTED_SMOKE") == "" {
		t.Skip("set MESHROUTED_SMOKE=1 to run the end-to-end daemon smoke test")
	}

	bin := filepath.Join(t.TempDir(), "meshrouted")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build meshrouted: %v\n%s", err, out)
	}

	var out lockedBuf
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-side", "16", "-seed", "9")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op after a clean Wait

	re := regexp.MustCompile(`listening on (http://[^\s]+)`)
	var baseURL string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			baseURL = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if baseURL == "" {
		t.Fatalf("daemon never announced its address:\n%s", out.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := obliviousmesh.NewClient(baseURL, obliviousmesh.ClientConfig{})
	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	m, err := client.Mesh(ctx)
	if err != nil {
		t.Fatalf("fetch mesh: %v", err)
	}
	var pairs []obliviousmesh.Pair
	for s := 0; s < 64; s++ {
		pairs = append(pairs, obliviousmesh.Pair{
			S: obliviousmesh.NodeID(s),
			T: obliviousmesh.NodeID((s + 101) % m.Size()),
		})
	}
	jsonPaths, err := client.RouteBatch(ctx, pairs)
	if err != nil {
		t.Fatalf("route batch: %v", err)
	}
	wirePaths, err := client.RouteBatchWire(ctx, pairs)
	if err != nil {
		t.Fatalf("route batch (wire): %v", err)
	}
	for i := range pairs {
		if len(jsonPaths[i]) == 0 || len(wirePaths[i]) != len(jsonPaths[i]) {
			t.Fatalf("pair %d: json %v vs wire %v", i, jsonPaths[i], wirePaths[i])
		}
	}
	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	for _, want := range []string{
		`meshrouted_routes_total{endpoint="batch"} 128`,
		"meshrouted_live_congestion",
		"meshrouted_route_table_bytes",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Real signal, real drain: the process must exit 0 on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("missing drain confirmation:\n%s", out.String())
	}
}

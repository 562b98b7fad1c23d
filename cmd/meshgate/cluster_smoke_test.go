package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	obliviousmesh "obliviousmesh"
)

// TestClusterSmoke is the `make cluster-smoke` end-to-end gate: it
// builds the real meshrouted and meshgate binaries, boots three
// routing daemons plus one gateway as separate processes, streams
// ~19k routes through the gateway with golden verification against a
// local Router and requires every batch's raw wire2 payload through
// the gateway to equal a single daemon's, SIGKILLs one backend mid-run
// (the remaining batches must still verify — re-fan plus prober
// demotion, zero wrong bytes), checks the gateway's books, then
// SIGTERMs everything and requires clean drains. Gated behind MESHGATE_SMOKE=1: it compiles and execs
// binaries, too heavy for every `go test ./...` run.
func TestClusterSmoke(t *testing.T) {
	if os.Getenv("MESHGATE_SMOKE") == "" {
		t.Skip("set MESHGATE_SMOKE=1 to run the end-to-end cluster smoke test")
	}

	dir := t.TempDir()
	routed := filepath.Join(dir, "meshrouted")
	gate := filepath.Join(dir, "meshgate")
	for bin, pkg := range map[string]string{routed: "../meshrouted", gate: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", bin, err, out)
		}
	}

	// boot starts one process and polls its stdout for the address line.
	boot := func(name string, args ...string) (*exec.Cmd, *lockedBuf, string) {
		t.Helper()
		var out lockedBuf
		cmd := exec.Command(name, args...)
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() }) // no-op after a clean Wait
		var baseURL string
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
			if m := listenLine.FindStringSubmatch(out.String()); m != nil {
				baseURL = m[1]
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if baseURL == "" {
			t.Fatalf("%s never announced its address:\n%s", name, out.String())
		}
		return cmd, &out, baseURL
	}

	const seed = 9
	backends := make([]*exec.Cmd, 3)
	urls := make([]string, 3)
	for i := range backends {
		backends[i], _, urls[i] = boot(routed, "-addr", "127.0.0.1:0", "-side", "16", "-seed", "9")
	}
	// -nohedge: a hedge could rescue the dead member's shard before the
	// failed attempt's retry backoff runs out, and a hedge loser is never
	// re-fanned — the refans_total check below needs the re-fan.
	gw, gwOut, gwURL := boot(gate,
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","),
		"-probe-interval", "100ms",
		"-nohedge",
	)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := obliviousmesh.NewClient(gwURL, obliviousmesh.ClientConfig{})
	// backends[0] is never killed: the single-daemon reference.
	direct := obliviousmesh.NewClient(urls[0], obliviousmesh.ClientConfig{})
	m, err := client.Mesh(ctx)
	if err != nil {
		t.Fatalf("fetch mesh through gateway: %v", err)
	}
	local, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	// 10 batches x 1900 pairs = 19000 routes, each batch verified
	// path-by-path against the local selector at stream = batch index.
	const batches, batchSize = 10, 1900
	pairs := make([]obliviousmesh.Pair, batchSize)
	verified := 0
	for b := 0; b < batches; b++ {
		for i := range pairs {
			s := (b*batchSize + i*7) % m.Size()
			d := (s*31 + b + 13) % m.Size()
			pairs[i] = obliviousmesh.Pair{S: obliviousmesh.NodeID(s), T: obliviousmesh.NodeID(d)}
		}
		err := client.RouteBatchSegFunc(ctx, pairs, func(i int, sp obliviousmesh.SegPath) error {
			got := sp.Expand(m)
			want := local.Path(pairs[i].S, pairs[i].T, uint64(i))
			if len(got) != len(want) {
				t.Fatalf("batch %d pair %d: %d hops, want %d", b, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("batch %d pair %d hop %d: %d != %d", b, i, j, got[j], want[j])
				}
			}
			verified++
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d through gateway: %v", b, err)
		}
		// Same batch through the gateway and one daemon as raw verified
		// wire2: the client checks each stream's checksum, and the
		// spliced payload must equal the single daemon's byte for byte.
		var spliced, single bytes.Buffer
		if _, err := client.RouteBatchWire2Raw(ctx, pairs, 0, &spliced); err != nil {
			t.Fatalf("batch %d raw via gateway: %v", b, err)
		}
		if _, err := direct.RouteBatchWire2Raw(ctx, pairs, 0, &single); err != nil {
			t.Fatalf("batch %d raw via single daemon: %v", b, err)
		}
		if !bytes.Equal(spliced.Bytes(), single.Bytes()) {
			t.Fatalf("batch %d: gateway and single daemon disagree (%d vs %d payload bytes)",
				b, spliced.Len(), single.Len())
		}
		// Power-cut one backend a third of the way in: every remaining
		// batch must still verify byte-for-byte.
		if b == batches/3 {
			if err := backends[1].Process.Kill(); err != nil {
				t.Fatal(err)
			}
			backends[1].Wait()
		}
	}
	if verified != batches*batchSize {
		t.Fatalf("verified %d routes, want %d", verified, batches*batchSize)
	}

	// The gateway's books: its own counter saw every route, the killed
	// member is down, the survivors are up, and at least one shard was
	// re-fanned off the corpse.
	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("scrape gateway metrics: %v", err)
	}
	// Each batch crossed the spliced gateway twice — once decoded and
	// verified path-by-path, once raw for the byte-identity check.
	for _, want := range []string{
		`meshgate_routes_total{endpoint="batch"} 38000`,
		"meshgate_backends 3",
		"meshgate_backends_healthy 2",
		"meshgate_backend_up{backend=" + `"` + urls[1] + `"` + "} 0",
		"meshgate_backend_up{backend=" + `"` + urls[0] + `"` + "} 1",
		"meshgate_backend_up{backend=" + `"` + urls[2] + `"` + "} 1",
		"meshgate_cluster_routes_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("gateway metrics missing %q:\n%s", want, metrics)
		}
	}
	// refans_total must be nonzero: the kill landed mid-run, so at
	// least one shard was re-fanned to a survivor.
	if strings.Contains(metrics, "meshgate_refans_total 0\n") {
		t.Errorf("refans_total is 0 after a mid-run backend kill:\n%s", metrics)
	}
	// The splice books: every wire2 batch was spliced.
	if !strings.Contains(metrics, "meshgate_splice_batches_total 20\n") {
		t.Errorf("gateway did not splice all 20 wire2 batches:\n%s", metrics)
	}

	// Real signals, clean drains: gateway first, then the survivors.
	stop := func(cmd *exec.Cmd, what string, out *lockedBuf) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				var logs string
				if out != nil {
					logs = out.String()
				}
				t.Fatalf("%s exited uncleanly after SIGTERM: %v\n%s", what, err, logs)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never exited after SIGTERM", what)
		}
	}
	stop(gw, "meshgate", gwOut)
	if !strings.Contains(gwOut.String(), "drained cleanly") {
		t.Fatalf("gateway missing drain confirmation:\n%s", gwOut.String())
	}
	stop(backends[0], "backend 0", nil)
	stop(backends[2], "backend 2", nil)
}

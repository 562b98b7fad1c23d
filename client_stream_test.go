package obliviousmesh_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/server"
)

// TestClientRouteBatchSegFunc pins the streaming decode contract:
// paths are delivered in pair order with their indices, each matches
// the local selection, and a callback error aborts the stream and
// surfaces verbatim.
func TestClientRouteBatchSegFunc(t *testing.T) {
	const seed = 31
	_, client := newService(t, server.Config{Seed: seed})
	ctx := context.Background()

	m, err := client.Mesh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := obliviousmesh.NewRouter(m, obliviousmesh.RouterOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []obliviousmesh.Pair
	for s := 0; s < m.Size(); s++ {
		pairs = append(pairs, obliviousmesh.Pair{
			S: obliviousmesh.NodeID(s),
			T: obliviousmesh.NodeID((s * 11) % m.Size()),
		})
	}

	next := 0
	err = client.RouteBatchSegFunc(ctx, pairs, func(i int, sp obliviousmesh.SegPath) error {
		if i != next {
			t.Fatalf("callback index %d, want %d (in-order delivery)", i, next)
		}
		next++
		want := local.Path(pairs[i].S, pairs[i].T, uint64(i))
		if !pathsEq(sp.Expand(m), want) {
			t.Fatalf("pair %d: streamed path != local selection", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(pairs) {
		t.Fatalf("callback ran %d times for %d pairs", next, len(pairs))
	}

	// An aborting callback stops the stream and surfaces verbatim.
	sentinel := errors.New("stop here")
	calls := 0
	err = client.RouteBatchSegFunc(ctx, pairs, func(i int, _ obliviousmesh.SegPath) error {
		calls++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times after aborting at index 2, want 3", calls)
	}

	// Empty batch: no callbacks, no error.
	if err := client.RouteBatchSegFunc(ctx, nil, func(int, obliviousmesh.SegPath) error {
		t.Fatal("callback on empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// maliciousService wraps a real daemon but replaces POST /v1/batch
// responses with attacker-controlled bytes.
func maliciousService(t *testing.T, payload func(w http.ResponseWriter)) *obliviousmesh.Client {
	t.Helper()
	m, err := obliviousmesh.NewMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Mesh: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && r.Method == http.MethodPost {
			payload(w)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return obliviousmesh.NewClient(ts.URL, obliviousmesh.ClientConfig{HTTPClient: ts.Client()})
}

// TestClientMaliciousServerBounded: a lying server cannot make the
// client allocate or read without bound — every attack shape ends in a
// prompt decode error. The io.LimitReader cap means even a server
// that streams forever is cut off at the format's worst-case size for
// the requested pair count.
func TestClientMaliciousServerBounded(t *testing.T) {
	pairs := []obliviousmesh.Pair{{S: 0, T: 9}, {S: 1, T: 8}}
	ctx := context.Background()

	writeHeader := func(w http.ResponseWriter, magic string, count uint64) {
		var hdr [16]byte
		n := copy(hdr[:], magic)
		n += binary.PutUvarint(hdr[n:], count)
		_, _ = w.Write(hdr[:n])
	}

	t.Run("wire2/hugecount", func(t *testing.T) {
		// Declares 2^40 paths: rejected at header time, before any
		// count-proportional allocation.
		client := maliciousService(t, func(w http.ResponseWriter) {
			writeHeader(w, "OMP2", 1<<40)
		})
		err := client.RouteBatchSegFunc(ctx, pairs, func(int, obliviousmesh.SegPath) error {
			t.Fatal("delivered a path from a bogus stream")
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("huge declared count not rejected: %v", err)
		}
	})

	t.Run("wire2/endless", func(t *testing.T) {
		// Correct count, then an endless varint (0x80 continuation
		// forever). The decoder gives up within bytes; the LimitReader
		// bounds the read even if it did not.
		client := maliciousService(t, func(w http.ResponseWriter) {
			writeHeader(w, "OMP2", uint64(len(pairs)))
			junk := make([]byte, 4096)
			for i := range junk {
				junk[i] = 0x80
			}
			for i := 0; i < 64; i++ { // 256 KiB, far past MaxWireSegBytes for 2 pairs
				if _, err := w.Write(junk); err != nil {
					return
				}
			}
		})
		err := client.RouteBatchSegFunc(ctx, pairs, func(int, obliviousmesh.SegPath) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "decode wire2 response") {
			t.Fatalf("endless stream not rejected cleanly: %v", err)
		}
	})

	t.Run("wire2/truncated", func(t *testing.T) {
		// Header only, then EOF: fewer paths than declared.
		client := maliciousService(t, func(w http.ResponseWriter) {
			writeHeader(w, "OMP2", uint64(len(pairs)))
		})
		err := client.RouteBatchSegFunc(ctx, pairs, func(int, obliviousmesh.SegPath) error { return nil })
		if err == nil {
			t.Fatal("truncated stream decoded cleanly")
		}
	})
}

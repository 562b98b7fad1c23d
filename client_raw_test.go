package obliviousmesh_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"strings"
	"testing"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/server"
)

// TestClientRouteBatchWire2Raw pins the raw-fetch contract: the
// payload bytes it hands the caller are exactly the record region of
// the daemon's wire2 stream — re-framing them through a splicer
// reproduces the full stream byte for byte, and the books (paths,
// bytes, edges) match the decoded view of the same batch.
func TestClientRouteBatchWire2Raw(t *testing.T) {
	const seed = 41
	_, client := newService(t, server.Config{Seed: seed})
	ctx := context.Background()

	m, err := client.Mesh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []obliviousmesh.Pair
	for s := 0; s < m.Size(); s++ {
		pairs = append(pairs, obliviousmesh.Pair{
			S: obliviousmesh.NodeID(s),
			T: obliviousmesh.NodeID((s*17 + 5) % m.Size()),
		})
	}

	var payload bytes.Buffer
	rb, err := client.RouteBatchWire2Raw(ctx, pairs, 0, &payload)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Paths != len(pairs) || rb.Bytes != int64(payload.Len()) {
		t.Fatalf("raw books %d paths/%d bytes, payload is %d bytes for %d pairs",
			rb.Paths, rb.Bytes, payload.Len(), len(pairs))
	}

	// The decoded view of the same batch, re-encoded canonically, is the
	// reference stream; the raw payload must be its record region.
	sps, err := client.RouteBatchSeg(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := serial.EncodeWireSeg(&whole, m, sps); err != nil {
		t.Fatal(err)
	}
	var rebuilt bytes.Buffer
	spl, err := serial.NewWireSegSplicer(&rebuilt, m, len(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if err := spl.Splice(payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := spl.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.Bytes(), whole.Bytes()) {
		t.Fatal("re-framed raw payload differs from the canonical encoding of the decoded batch")
	}
	var edges int64
	for _, sp := range sps {
		for _, sg := range sp.Segs {
			if sg.Run < 0 {
				edges -= int64(sg.Run)
			} else {
				edges += int64(sg.Run)
			}
		}
	}
	if rb.Edges != edges {
		t.Fatalf("raw books %d edges, decoded batch has %d", rb.Edges, edges)
	}

	// base > 0: the raw shard at base=lo is byte-identical to the record
	// region of the whole batch restricted to [lo:hi] — the sharding
	// property the gateway's splice is built on.
	lo, hi := 3, len(pairs)-5
	var shard bytes.Buffer
	if _, err := client.RouteBatchWire2Raw(ctx, pairs[lo:hi], uint64(lo), &shard); err != nil {
		t.Fatal(err)
	}
	var sub bytes.Buffer
	if err := serial.EncodeWireSeg(&sub, m, sps[lo:hi]); err != nil {
		t.Fatal(err)
	}
	var subPayload bytes.Buffer
	if _, _, err := serial.CopyRawWireSeg(&subPayload, &sub, m, hi-lo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shard.Bytes(), subPayload.Bytes()) {
		t.Fatalf("raw shard at base=%d differs from the whole batch's [%d:%d] records", lo, lo, hi)
	}
}

// A lying server cannot push unbounded or corrupt bytes through the
// raw path: every attack shape the decode path rejects, the raw path
// rejects too, before dst sees a full bogus stream.
func TestClientRouteBatchWire2RawMalicious(t *testing.T) {
	pairs := []obliviousmesh.Pair{{S: 0, T: 9}, {S: 1, T: 8}}
	ctx := context.Background()

	writeHeader := func(w http.ResponseWriter, count uint64) {
		var hdr [16]byte
		n := copy(hdr[:], "OMP2")
		n += binary.PutUvarint(hdr[n:], count)
		_, _ = w.Write(hdr[:n])
	}

	t.Run("hugecount", func(t *testing.T) {
		client := maliciousService(t, func(w http.ResponseWriter) {
			writeHeader(w, 1<<40)
		})
		var sink bytes.Buffer
		_, err := client.RouteBatchWire2Raw(ctx, pairs, 0, &sink)
		if err == nil || !strings.Contains(err.Error(), "declares") {
			t.Fatalf("huge declared count not rejected: %v", err)
		}
	})

	t.Run("endless", func(t *testing.T) {
		// A varint that never terminates: the scanner rejects it within
		// 10 bytes, the LimitReader bounds the read regardless.
		client := maliciousService(t, func(w http.ResponseWriter) {
			writeHeader(w, uint64(len(pairs)))
			junk := make([]byte, 4096)
			for i := range junk {
				junk[i] = 0x80
			}
			for i := 0; i < 64; i++ {
				if _, err := w.Write(junk); err != nil {
					return
				}
			}
		})
		var sink bytes.Buffer
		_, err := client.RouteBatchWire2Raw(ctx, pairs, 0, &sink)
		if err == nil || !strings.Contains(err.Error(), "decode wire2 response") {
			t.Fatalf("endless stream not rejected cleanly: %v", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		client := maliciousService(t, func(w http.ResponseWriter) {
			writeHeader(w, uint64(len(pairs)))
		})
		var sink bytes.Buffer
		if _, err := client.RouteBatchWire2Raw(ctx, pairs, 0, &sink); err == nil {
			t.Fatal("truncated stream accepted")
		}
	})
}

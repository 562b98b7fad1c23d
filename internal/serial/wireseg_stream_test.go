package serial

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"obliviousmesh/internal/mesh"
)

// TestWireSegDecoderStreaming drives the incremental decoder by hand
// and checks it agrees path-for-path with the monolithic decode, ends
// with io.EOF past the declared count, and verifies the trailer on
// Close.
func TestWireSegDecoderStreaming(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 9)
	sps = append(sps, mesh.SegPath{Start: -1}, mesh.SegPath{Start: 5})
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, m, sps); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	want, err := DecodeWireSeg(bytes.NewReader(wire), m, 0)
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewWireSegDecoder(bytes.NewReader(wire), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != len(sps) {
		t.Fatalf("Count() = %d, want %d", d.Count(), len(sps))
	}
	got := make([]mesh.SegPath, 0, d.Count())
	for i := 0; i < d.Count(); i++ {
		sp, err := d.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		got = append(got, sp)
	}
	if !segPathsEqual(got, want) {
		t.Fatal("streamed decode differs from monolithic decode")
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next past count = %v, want io.EOF", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWireSegDecoderEarlyClose pins the not-fully-drained contract:
// Close before every declared path was read is an error, never a
// silent success.
func TestWireSegDecoderEarlyClose(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 3)
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, m, sps); err != nil {
		t.Fatal(err)
	}
	d, err := NewWireSegDecoder(&buf, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "not decoded") {
		t.Fatalf("early Close = %v, want declared-paths-not-decoded error", err)
	}
}

// TestWireSegDecoderTruncation: a stream cut mid-path fails in Next, a
// stream cut inside the trailer fails in Close; neither succeeds.
func TestWireSegDecoderTruncation(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 5)
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, m, sps); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	for _, cut := range []int{len(wire) - 3, len(wire) / 2, 6} {
		d, err := NewWireSegDecoder(bytes.NewReader(wire[:cut]), m, 0)
		if err != nil {
			continue // cut inside the header: also a loud failure
		}
		failed := false
		for i := 0; i < d.Count(); i++ {
			if _, err := d.Next(); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			if err := d.Close(); err == nil {
				t.Fatalf("cut at %d of %d decoded cleanly", cut, len(wire))
			}
		}
	}
}

// TestMaxWireBytes checks the OMP2 cap is a true upper bound for real
// streams — the property the client's LimitReader defence relies on.
func TestMaxWireBytes(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 11)

	var segBuf bytes.Buffer
	if err := EncodeWireSeg(&segBuf, m, sps); err != nil {
		t.Fatal(err)
	}
	if limit := MaxWireSegBytes(m, len(sps)); int64(segBuf.Len()) > limit {
		t.Fatalf("real OMP2 stream (%d bytes) exceeds MaxWireSegBytes %d", segBuf.Len(), limit)
	}

	// A decode capped at the limit still succeeds — the cap must never
	// reject a legitimate stream.
	lr := io.LimitReader(bytes.NewReader(segBuf.Bytes()), MaxWireSegBytes(m, len(sps)))
	if _, err := DecodeWireSeg(lr, m, len(sps)); err != nil {
		t.Fatalf("decode under cap: %v", err)
	}
}

// TestAcquireWireSegEncoder: pooled encoders produce byte-identical
// streams to fresh ones, across reuse.
func TestAcquireWireSegEncoder(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 13)

	var want bytes.Buffer
	if err := EncodeWireSeg(&want, m, sps); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var got bytes.Buffer
		enc, err := AcquireWireSegEncoder(&got, m, len(sps))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range sps {
			if err := enc.Encode(sp); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		enc.Release()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: pooled encoder bytes differ from fresh encoder", round)
		}
	}
}

// TestWireSegDecoderLimits: the declared-count bound still applies at
// construction time, before any allocation proportional to it.
func TestWireSegDecoderLimits(t *testing.T) {
	m := mesh.MustSquare(2, 8)
	sps, _ := routedSegPaths(t, m, 1)
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, m, sps); err != nil {
		t.Fatal(err)
	}
	_, err := NewWireSegDecoder(bytes.NewReader(buf.Bytes()), m, len(sps)-1)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("over-limit header accepted: %v", err)
	}
	var none error
	if _, err := NewWireSegDecoder(bytes.NewReader(buf.Bytes()), m, 0); !errors.Is(err, none) {
		t.Fatalf("unbounded decode rejected: %v", err)
	}
}

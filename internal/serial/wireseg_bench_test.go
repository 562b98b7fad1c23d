package serial

import (
	"bytes"
	"io"
	"testing"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// wireSegBenchPaths is the number of recorded packets in the OMP2
// benchmark: one serve-sized batch.
const wireSegBenchPaths = 2048

// wireSegCorpus records the run-length paths Algorithm H selects for
// the first wireSegBenchPaths packets of the seed-3 random permutation
// on the side-256 2-D mesh (Variant2D, seed 1) — the records a
// perm-batch response carries.
func wireSegCorpus(tb testing.TB) (*mesh.Mesh, []mesh.SegPath) {
	tb.Helper()
	m := mesh.MustSquare(2, 256)
	pairs := workload.RandomPermutation(m, 3).Pairs[:wireSegBenchPaths]
	sel, err := core.NewSelector(m, core.Options{Variant: core.Variant2D, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sps, _ := sel.SelectAllSeg(pairs)
	return m, sps
}

// hashFolded and hashFNV checksum every record of sps, with the wire
// hasher and with hash/fnv fed the same values.
func hashFolded(sps []mesh.SegPath) uint64 {
	h := fnvPut(fnvOffset64, uint64(len(sps)))
	for _, sp := range sps {
		if sp.Start < 0 {
			h = fnvPut(h, 0)
			continue
		}
		h = fnvPut(fnvPut(h, uint64(len(sp.Segs))+1), uint64(sp.Start))
		for _, sg := range sp.Segs {
			code, steps := segCode(sg)
			h = fnvPut(fnvPut(h, code), steps)
		}
	}
	return h
}

func hashFNV(sps []mesh.SegPath) uint64 {
	o := newFNVOracle()
	o.put(uint64(len(sps)))
	for _, sp := range sps {
		o.addSeg(sp)
	}
	return o.h.Sum64()
}

// BenchmarkWireSeg prices the OMP2 codec on one recorded side-256
// Algorithm-H batch, per path: encode (validation, varints, checksum);
// decode into caller-owned paths and decode-lent into the decoder's
// scratch (the client's RouteBatchSegFunc); the gateway's two raw
// passes, copy-raw (CopyRawWireSeg: header, records, trailer) and
// splice (WireSegSplicer over the payload); and the checksum alone with
// the folded wire hasher and with hash/fnv.
func BenchmarkWireSeg(b *testing.B) {
	m, sps := wireSegCorpus(b)
	var buf bytes.Buffer
	if err := EncodeWireSeg(&buf, m, sps); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	perPath := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sps)), "ns/path")
	}
	b.Run("side256/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, err := AcquireWireSegEncoder(io.Discard, m, len(sps))
			if err != nil {
				b.Fatal(err)
			}
			for _, sp := range sps {
				if err := enc.Encode(sp); err != nil {
					b.Fatal(err)
				}
			}
			if err := enc.Close(); err != nil {
				b.Fatal(err)
			}
			enc.Release()
		}
		perPath(b)
	})
	b.Run("side256/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeWireSeg(bytes.NewReader(blob), m, 0); err != nil {
				b.Fatal(err)
			}
		}
		perPath(b)
	})
	b.Run("side256/decode-lent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := NewWireSegDecoder(bytes.NewReader(blob), m, 0)
			if err != nil {
				b.Fatal(err)
			}
			for range sps {
				if _, err := d.NextLent(); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
		perPath(b)
	})
	b.Run("side256/copy-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := CopyRawWireSeg(io.Discard, bytes.NewReader(blob), m, len(sps)); err != nil {
				b.Fatal(err)
			}
		}
		perPath(b)
	})
	b.Run("side256/splice", func(b *testing.B) {
		var payload bytes.Buffer
		if _, _, err := CopyRawWireSeg(&payload, bytes.NewReader(blob), m, len(sps)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spl, err := NewWireSegSplicer(io.Discard, m, len(sps))
			if err != nil {
				b.Fatal(err)
			}
			if err := spl.Splice(payload.Bytes()); err != nil {
				b.Fatal(err)
			}
			if err := spl.Close(); err != nil {
				b.Fatal(err)
			}
		}
		perPath(b)
	})
	b.Run("side256/checksum-folded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashFolded(sps)
		}
		perPath(b)
	})
	b.Run("side256/checksum-fnv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashFNV(sps)
		}
		perPath(b)
	})
}

// TestBenchGateWireChecksum is the CI benchmark gate for the wire
// checksum: per recorded side-256 path record, the folded hasher may
// cost at most maxChecksumRatio times hash/fnv fed the same values'
// 8 little-endian bytes. Both hash the same values, so the ratio is
// the per-byte loop alone; the fold measures about 0.25x, a per-byte
// hasher about 1x.
func TestBenchGateWireChecksum(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("race runtime distorts ns/op; the gate runs in the non-race suite")
	}
	const maxChecksumRatio = 0.5
	_, sps := wireSegCorpus(t)
	if hashFolded(sps) != hashFNV(sps) {
		t.Fatal("folded checksum differs from hash/fnv on the recorded batch")
	}
	// Best of two runs per hasher: scheduler noise only ever adds time.
	measure := func(hash func([]mesh.SegPath) uint64) float64 {
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hash(sps)
				}
			})
			if ns := float64(r.NsPerOp()) / float64(len(sps)); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	folded, oracle := measure(hashFolded), measure(hashFNV)
	if folded > maxChecksumRatio*oracle {
		t.Fatalf("checksum per path record: folded %.0f ns vs hash/fnv %.0f ns (%.2fx), want <= %.1fx",
			folded, oracle, folded/oracle, maxChecksumRatio)
	}
	t.Logf("checksum per path record: folded %.0f ns, hash/fnv %.0f ns: %.2fx", folded, oracle, folded/oracle)
}

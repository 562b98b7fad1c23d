package main

import (
	"bytes"
	"fmt"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

// maxStretch is Theorem 3.4's stretch bound for algorithm H.
const maxStretch = 64

// verifier checks captured responses against a local core.Selector
// with the daemons' seed and variant. It runs outside the timed window.
type verifier struct {
	w        workload
	in       *inputs
	sel      *core.Selector
	expected map[int][]byte // batch index → the single-daemon wire2 bytes
}

func newVerifier(w workload, in *inputs) (*verifier, error) {
	sel, err := core.NewSelector(in.m, core.Options{Variant: core.Variant2D, Seed: routeSeed, KSample: w.ksample})
	if err != nil {
		return nil, err
	}
	return &verifier{w: w, in: in, sel: sel, expected: map[int][]byte{}}, nil
}

// check verifies every capture and returns how many requests failed it
// and the routes those requests had delivered, with the first error.
func (v *verifier) check(caps []captured) (bad, badRoutes int, first error) {
	for _, c := range caps {
		routes, err := v.checkOne(c)
		if err != nil {
			bad++
			badRoutes += routes
			if first == nil {
				first = err
			}
		}
	}
	return bad, badRoutes, first
}

func (v *verifier) checkOne(c captured) (routes int, err error) {
	if v.w.batch == 0 {
		pr := v.in.pairAt(c.idx)
		want := v.sel.Path(pr.S, pr.T, c.stream)
		if !equalPath(c.path, want) {
			return 1, fmt.Errorf("route %d (%d→%d, stream %d): path differs from the local selector", c.idx, pr.S, pr.T, c.stream)
		}
		return 1, nil
	}
	bi := c.idx % len(v.in.batches)
	pairs := v.in.batches[bi]
	if v.w.ksample > 1 {
		return len(pairs), v.checkSampled(c, pairs)
	}
	want, ok := v.expected[bi]
	if !ok {
		// Batch streams are the indexes within the batch.
		sps, _ := v.sel.SelectAllSeg(pairs)
		var buf bytes.Buffer
		if err := serial.EncodeWireSeg(&buf, v.in.m, sps); err != nil {
			return len(pairs), err
		}
		want = buf.Bytes()
		v.expected[bi] = want
	}
	if !bytes.Equal(c.body, want) {
		return len(pairs), fmt.Errorf("batch request %d: %d response bytes differ from the local selector's %d", c.idx, len(c.body), len(want))
	}
	return len(pairs), nil
}

// checkSampled verifies a k-sample response, whose choice depends on
// live loads: every path must be a valid walk between its endpoints
// within the stretch bound, and the stream must decode with its
// checksum.
func (v *verifier) checkSampled(c captured, pairs []mesh.Pair) error {
	m := v.in.m
	dec, err := serial.NewWireSegDecoder(bytes.NewReader(c.body), m, len(pairs))
	if err != nil {
		return fmt.Errorf("batch request %d: %w", c.idx, err)
	}
	if dec.Count() != len(pairs) {
		return fmt.Errorf("batch request %d: %d paths for %d pairs", c.idx, dec.Count(), len(pairs))
	}
	for i, pr := range pairs {
		sp, err := dec.Next()
		if err != nil {
			return fmt.Errorf("batch request %d: %w", c.idx, err)
		}
		if err := m.ValidateSeg(sp, pr.S, pr.T); err != nil {
			return fmt.Errorf("batch request %d path %d: %w", c.idx, i, err)
		}
		if d := m.Dist(pr.S, pr.T); sp.Len() > maxStretch*d {
			return fmt.Errorf("batch request %d path %d: length %d exceeds %d×distance %d", c.idx, i, sp.Len(), maxStretch, d)
		}
	}
	if err := dec.Close(); err != nil {
		return fmt.Errorf("batch request %d: %w", c.idx, err)
	}
	return nil
}

func equalPath(a, b mesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package core

import "obliviousmesh/internal/mesh"

// SegPath selects the run-length path for packet (s, t, stream). The
// result is exactly Path(s, t, stream).Compress — same randomness, same
// cycle removal — but it is produced straight from Algorithm H's
// dim-by-dim construction without ever materializing the hop sequence,
// which is what takes BenchmarkPathSelect2D from O(path length) to
// O(d · chain length) bytes per op.
func (sel *Selector) SegPath(s, t mesh.NodeID, stream uint64) mesh.SegPath {
	sp, _ := sel.SegPathStats(s, t, stream)
	return sp
}

// SegPathStats is SegPath plus exact per-packet accounting. The stats
// are identical to PathStats' for the same packet.
func (sel *Selector) SegPathStats(s, t mesh.NodeID, stream uint64) (mesh.SegPath, Stats) {
	sc := sel.getScratch()
	runs, st, _, _ := sel.pick(s, t, stream, nil, sc)
	sp := mesh.SegPath{Start: s, Segs: segCopy(nil, runs)}
	sel.putScratch(sc)
	return sp, st
}

// selectRuns draws the packet's randomness against the resolved chain
// ch (ignored when s == t), builds the raw dim-by-dim runs between
// consecutive waypoints and writes the packet's final runs into
// buf[:0]: the loop erasure of the raw walk, or the raw runs
// themselves under KeepCycles. It returns them — grown from buf, so
// they alias it — with complete Stats. The k-sample engine races
// candidates through alternating bufs; everyone else passes sc.segs2.
func (sel *Selector) selectRuns(s, t mesh.NodeID, stream uint64, ch chainRef, buf []mesh.Seg, sc *scratch) ([]mesh.Seg, Stats) {
	if s == t {
		return buf[:0], Stats{ChainLen: 1}
	}
	wp, perm := sel.draw(s, t, stream, ch, sc)
	d := sel.m.Dim()
	segs := sc.segs[:0]
	raw := 0
	for i := d; i < len(wp); i += d {
		var n int
		segs, n = sel.m.AppendStaircaseSegs(segs, wp[i-d:i], wp[i:i+d], perm)
		raw += n
	}
	sc.segs = segs
	st := Stats{
		RandomBits:   sc.rng.BitsUsed(),
		BridgeHeight: sel.dc.HeightOf(ch.br.Level),
		BridgeType:   ch.br.Type,
		ChainLen:     len(ch.boxes),
		RawLen:       raw,
		Len:          raw,
	}
	if sel.opt.KeepCycles {
		return append(buf[:0], segs...), st
	}
	buf, st.Len = sel.m.LoopErase(s, segs, &sc.er, buf)
	return buf, st
}

// SegObserver receives each whole selected run-length path (with its
// per-packet stats) immediately after construction — the segment
// counterpart of PathObserver. packet is the packet's stream; the
// SegPath is caller-owned and safe to retain unless it was carved from
// Request.Arena.
type SegObserver func(packet int, pr mesh.Pair, sp mesh.SegPath, st Stats)

package mesh

import "fmt"

// Loop erasure on run geometry.
//
// RemoveCycles' last-occurrence excision (keep v, jump to v's last
// visit, repeat) is exactly chronological loop erasure: walk the nodes
// in order on a stack, and when a node is already on the stack pop back
// down to it instead of pushing it again. LoopErase runs that stack one
// run at a time instead of one hop at a time. The stack is kept as
// axis-parallel pieces, each stored as its bounding box, and the start
// node is a degenerate piece at the bottom. Every piece's nodes are
// distinct and sit above all nodes of the pieces below it.
//
// An incoming run (its first node is the current top, so it is left
// out) has distinct nodes, so processing them hop by hop collapses to
// one step: find the run node with the minimum stack position, cut the
// stack just above it, and push the rest of the run. That node lies in
// the first piece, counted from the bottom, whose box meets the run's
// box. Within that piece P it is P's earliest node inside the run: the
// overlap end nearest P's start when the two are collinear, the single
// crossing node otherwise.
//
// Boxes never wrap: a torus run is split at every seam crossing into
// pieces of at most side nodes, which also covers merged runs that lap
// the ring. Coordinates are packed one field per dimension with a
// guard bit above each field (see Mesh.cshift), so the box test is a
// constant number of word operations whatever d is: for boxes p and n,
// (n.hi|G)-p.lo keeps field i's guard bit iff n.hi_i ≥ p.lo_i, and the
// boxes meet iff both differences keep every guard bit. The cost is
// one box test per (run, piece below the hit) — it follows the number
// of runs, not the number of hops, and no per-node table is kept.

// erasePiece is one axis-parallel stretch of the erased prefix: the
// nodes of the box [lo, hi] (packed coordinates), walked along dim in
// direction dir.
type erasePiece struct {
	lo, hi uint64
	dim    int32
	dir    int32
}

// EraseBuf holds the reusable piece stack of LoopErase. One EraseBuf
// serves one goroutine at a time; it grows to the longest erased walk
// seen and is then reused, on any mesh.
type EraseBuf struct {
	stack []erasePiece
}

// packNode returns the packed coordinate of node u.
func (m *Mesh) packNode(u NodeID) uint64 {
	v := int(u)
	var x uint64
	for i, s := range m.dims {
		x |= uint64(v%s) << m.cshift[i]
		v /= s
	}
	return x
}

// LoopErase erases the loops of the walk that starts at start and
// follows segs, and appends the surviving walk's canonical runs to
// dst[:0]. It returns them together with their total length in hops.
// For every walk the result equals
//
//	SegPath{Start: start, Segs: segs}.Expand(m).RemoveCycles().Compress(m).Segs
//
// Zero runs are skipped. The runs need not be canonical: split
// same-direction runs, retraces and torus runs longer than the ring are
// all accepted. Panics when a run steps off an open side.
func (m *Mesh) LoopErase(start NodeID, segs []Seg, eb *EraseBuf, dst []Seg) ([]Seg, int) {
	cur := m.packNode(start)
	st := append(eb.stack[:0], erasePiece{lo: cur, hi: cur, dir: 1})
	for _, sg := range segs {
		if sg.Run == 0 {
			continue
		}
		dim := int(sg.Dim)
		s := m.dims[dim]
		sh, mask := m.cshift[dim], m.cmask[dim]
		c := int(cur >> sh & mask)
		line := cur &^ (mask << sh)
		run, dir := int(sg.Run), int32(1)
		if run < 0 {
			dir = -1
		}
		if !m.wrapDim(dim) {
			end := c + run
			if end < 0 || end > s-1 {
				panic(fmt.Sprintf("mesh: segment run of %d along dim %d leaves side %d", run, dim, s))
			}
			lo, hi := c+1, end
			if dir < 0 {
				lo, hi = end, c-1
			}
			st = m.eraseRun(st, line|uint64(lo)<<sh, line|uint64(hi)<<sh, dim, dir)
			cur = line | uint64(end)<<sh
			continue
		}
		// On a ring, erase one piece per seam crossing.
		n := run * int(dir)
		for n > 0 {
			var lo, hi int
			if dir > 0 {
				if c == s-1 {
					c = -1 // the next hop crosses the seam to coordinate 0
				}
				k := min(n, s-1-c)
				lo, hi, c = c+1, c+k, c+k
				n -= k
			} else {
				if c == 0 {
					c = s // the next hop crosses the seam to coordinate s-1
				}
				k := min(n, c)
				lo, hi, c = c-k, c-1, c-k
				n -= k
			}
			st = m.eraseRun(st, line|uint64(lo)<<sh, line|uint64(hi)<<sh, dim, dir)
		}
		cur = line | uint64(c)<<sh
	}
	eb.stack = st

	out := dst[:0]
	total := 0
	for _, p := range st[1:] {
		sh, mask := m.cshift[p.dim], m.cmask[p.dim]
		k := int32(p.hi>>sh&mask - p.lo>>sh&mask + 1)
		total += int(k)
		if n := len(out); n > 0 && out[n-1].Dim == p.dim && (out[n-1].Run > 0) == (p.dir > 0) {
			out[n-1].Run += k * p.dir
		} else {
			out = append(out, Seg{Dim: p.dim, Run: k * p.dir})
		}
	}
	return out, total
}

// eraseRun erases one seam-free run piece — the nodes of the box
// [lo, hi] along dim, walked in direction dir — against the stack st
// and returns the new stack.
func (m *Mesh) eraseRun(st []erasePiece, lo, hi uint64, dim int, dir int32) []erasePiece {
	g := m.cguard
	for k := range st {
		p := &st[k]
		if ((hi|g)-p.lo)&((p.hi|g)-lo)&g != g {
			continue
		}
		// p holds the run's lowest stack node; mc is its coordinate
		// along p's own axis.
		pd := int(p.dim)
		psh, pmask := m.cshift[pd], m.cmask[pd]
		var mc uint64
		switch {
		case pd != dim:
			mc = lo >> psh & pmask
		case p.dir > 0:
			mc = max(p.lo>>psh&pmask, lo>>psh&pmask)
		default:
			mc = min(p.hi>>psh&pmask, hi>>psh&pmask)
		}
		if p.dir > 0 {
			p.hi = p.hi&^(pmask<<psh) | mc<<psh
		} else {
			p.lo = p.lo&^(pmask<<psh) | mc<<psh
		}
		// The same node's coordinate along the run's axis.
		sh, mask := m.cshift[dim], m.cmask[dim]
		mr := mc
		if pd != dim {
			mr = p.lo >> sh & mask
		}
		st = st[:k+1]
		if dir > 0 {
			if mr < hi>>sh&mask {
				st = append(st, erasePiece{lo: lo&^(mask<<sh) | (mr+1)<<sh, hi: hi, dim: int32(dim), dir: dir})
			}
		} else if mr > lo>>sh&mask {
			st = append(st, erasePiece{lo: lo, hi: hi&^(mask<<sh) | (mr-1)<<sh, dim: int32(dim), dir: dir})
		}
		return st
	}
	return append(st, erasePiece{lo: lo, hi: hi, dim: int32(dim), dir: dir})
}

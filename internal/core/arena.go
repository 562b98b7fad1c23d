package core

import (
	"sync"

	"obliviousmesh/internal/mesh"
)

// This file is the slab arena behind the serve pipeline's zero-copy
// chunk selection: instead of one exact-size heap []Seg per committed
// path (1 alloc/packet, the floor the plain engines sit at), a chunk's
// worth of paths shares a handful of contiguous blocks that are reused
// wholesale — Reset is two integer stores — once the chunk's bytes are
// on the wire. Paths backed by an arena are valid ONLY until the
// arena's next Reset; nothing built on one may escape its chunk, which
// is the lifetime rule DESIGN.md §14 spells out for the pipeline.

// segArenaBlock is the segment count of one arena block: 8192 segments
// = 64 KiB, big enough that even side-1024 paths (a few hundred runs)
// never straddle a block boundary in practice, small enough that an
// idle pooled arena holds no more than a socket buffer's worth.
const segArenaBlock = 8192

// SegArena is a bump allocator for []mesh.Seg slabs. Alloc hands out
// full-capacity slices (three-index, so appends can never bleed into a
// neighbour), Reset reclaims everything at once and keeps the blocks.
// Not safe for concurrent use; the parallel engines give each worker
// its own arena via SegArenaGroup.
type SegArena struct {
	blocks [][]mesh.Seg
	bi     int // block being bumped
	off    int // next free segment in blocks[bi]
}

// Alloc returns a zeroed-length slice with capacity exactly n carved
// from the arena. Oversize requests (> one block) get a dedicated
// block of exactly n so they recycle like everything else.
func (a *SegArena) Alloc(n int) []mesh.Seg {
	if n <= 0 {
		return nil
	}
	for {
		if a.bi < len(a.blocks) {
			b := a.blocks[a.bi]
			if a.off+n <= cap(b) {
				s := b[a.off : a.off : a.off+n]
				a.off += n
				return s
			}
			if n > cap(b) && a.off == 0 {
				// A fresh block that's still too small (oversize path):
				// replace it with a dedicated right-sized one.
				a.blocks[a.bi] = make([]mesh.Seg, 0, n)
				continue
			}
			a.bi++
			a.off = 0
			continue
		}
		size := segArenaBlock
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]mesh.Seg, 0, size))
	}
}

// Reset reclaims every allocation at once, keeping the blocks for
// reuse. All slices previously returned by Alloc become invalid.
func (a *SegArena) Reset() {
	a.bi, a.off = 0, 0
}

// Footprint reports the total segment capacity the arena holds, for
// sizing metrics.
func (a *SegArena) Footprint() int {
	n := 0
	for _, b := range a.blocks {
		n += cap(b)
	}
	return n
}

// SegArenaGroup hands per-worker SegArenas to the parallel chunk
// engines: each worker leases a private arena for its range (bump
// allocation needs no lock inside the loop) and the group retains every
// arena it ever created so one Reset call reclaims a whole chunk's
// memory. The group itself is pooled by the serve pipeline, so
// steady-state chunks allocate nothing.
type SegArenaGroup struct {
	mu   sync.Mutex
	free []*SegArena
	all  []*SegArena
}

// get leases an arena; put returns it for the next worker. Leased
// arenas keep their allocations live across put — only Reset reclaims.
func (g *SegArenaGroup) get() *SegArena {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := len(g.free); n > 0 {
		a := g.free[n-1]
		g.free = g.free[:n-1]
		return a
	}
	a := &SegArena{}
	g.all = append(g.all, a)
	return a
}

func (g *SegArenaGroup) put(a *SegArena) {
	g.mu.Lock()
	g.free = append(g.free, a)
	g.mu.Unlock()
}

// Reset reclaims every member arena. All paths carved from the group
// become invalid; callers must not Reset while a select is in flight.
func (g *SegArenaGroup) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, a := range g.all {
		a.Reset()
	}
}

// Footprint reports the total segment capacity across member arenas.
func (g *SegArenaGroup) Footprint() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, a := range g.all {
		n += a.Footprint()
	}
	return n
}

// segCopy commits a scratch-aliased segment slice: into ar when
// non-nil, else as a private exact-size heap copy (the plain engines'
// behaviour). Empty input commits as nil either way, the form
// Path.Compress gives a single-node path.
func segCopy(ar *SegArena, segs []mesh.Seg) []mesh.Seg {
	if len(segs) == 0 {
		return nil
	}
	if ar == nil {
		return append(make([]mesh.Seg, 0, len(segs)), segs...)
	}
	return append(ar.Alloc(len(segs)), segs...)
}

package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's hosts are shared, and their speed drifts: on a 2-vCPU
// cloud host the same build served 66k and 91k routes/s three minutes
// apart, with process CPU time per route moving in step. No run length
// averages that out, so the timed window is cut into slices, and after
// each slice a probe times a fixed reference kernel on every CPU. The
// kernel is the benchmark's own code and does not change with the
// program, so the probe reads the host, not the program. The time
// metrics are reported at the reference speed refUnitNS: measured
// times are divided by probe/refUnitNS and rates multiplied by it.
// The raw figures are printed beside them.

// refUnitNS is the reference speed: what one kernel unit costs, in
// wall-clock ns per CPU. Over 40 runs on a shared 2-vCPU Intel Xeon
// host at 2.0 GHz the window means ranged from 182k to 221k, median 207k.
const refUnitNS = 190_000

// sliceLen is the length of one timed slice of a closed-loop window;
// probeLen is the length of the probe after it.
const (
	sliceLen = time.Second
	probeLen = 100 * time.Millisecond
)

// probeTable is the kernel's memory-latency part: one random cycle
// through 32 MiB of uint32 indexes, mapped outside the Go heap so that
// it adds nothing to the heap the program's collector scans or to
// heap_inuse_mib.
type probeTable struct {
	mem  []byte
	next []uint32
}

func newProbeTable() (*probeTable, error) {
	const n = 1 << 23
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map probe table: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle, so a walk never settles
	// into a short loop that fits in a cache.
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &probeTable{mem: mem, next: next}, nil
}

func (t *probeTable) close() error { return syscall.Munmap(t.mem) }

type probeNode struct {
	next *probeNode
	v    [6]uint64
}

// unit is one unit of the reference kernel: integer arithmetic, a
// dependent walk through memory, and small allocations with a map, the
// kinds of work the program's own mix is made of.
func (t *probeTable) unit(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < 8192; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x100000001b3
	}
	j := uint32(x % uint64(len(t.next)))
	for i := 0; i < 512; i++ {
		j = t.next[j]
	}
	var head *probeNode
	for i := 0; i < 256; i++ {
		head = &probeNode{next: head}
		head.v[0] = x + uint64(i)
	}
	m := make(map[uint64]uint64, 64)
	for i := uint64(0); i < 64; i++ {
		m[(x+i)*0x9e3779b97f4a7c15] = i
	}
	return uint64(j) + head.v[0] + uint64(len(m))
}

// probeSink keeps the kernel's results alive.
var probeSink uint64

// probe runs the kernel on every CPU for d and returns the wall-clock
// ns one unit took per CPU. It starts from a finished collection and
// keeps the collector off, so neither the program's leftover garbage
// nor the size of its heap reaches the kernel's timing.
func (t *probeTable) probe(d time.Duration) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := runtime.NumCPU()
	units := make([]int, p)
	sums := make([]uint64, p)
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(d)
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(end); n++ {
				sums[g] += t.unit(uint64(n*p + g))
				units[g]++
			}
		}(g)
	}
	wg.Wait()
	el := time.Since(t0)
	total := 0
	for g := range units {
		total += units[g]
		probeSink += sums[g]
	}
	return float64(el.Nanoseconds()) * float64(p) / float64(total)
}

// hostSpeed is the probes of one window.
type hostSpeed struct{ unitNS []float64 }

func (h hostSpeed) String() string {
	if len(h.unitNS) == 0 {
		return "not probed"
	}
	p := append([]float64(nil), h.unitNS...)
	sort.Float64s(p)
	return fmt.Sprintf("probe %.0f ns/unit mean, %.0f..%.0f (n=%d); reference %d ns/unit: factor %.4f",
		h.factor()*refUnitNS, p[0], p[len(p)-1], len(p), refUnitNS, h.factor())
}

// factor is how much slower than the reference the host ran during the
// window: the mean probe over refUnitNS; 1 without probes.
func (h hostSpeed) factor() float64 {
	if len(h.unitNS) == 0 {
		return 1
	}
	var s float64
	for _, v := range h.unitNS {
		s += v
	}
	return s / float64(len(h.unitNS)) / refUnitNS
}

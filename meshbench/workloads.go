package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"obliviousmesh/internal/mesh"
	gen "obliviousmesh/internal/workload"
)

// routeSeed keys every daemon and the local reference selector. It is
// program configuration, not input: the inputs vary with --seed, the
// routing seed does not.
const routeSeed = 0x6d657368

// workload is one named traffic mix. Every workload runs the 2-D
// variant with the shipped daemon and gateway defaults unless a field
// below says otherwise.
type workload struct {
	name string
	why  string // one line, the same as in BENCHMARK.json

	side    int  // mesh side
	batch   int  // pairs per /v1/batch wire2 request; 0 sends single /v1/route requests
	ksample int  // daemon KSample; 0 serves pure algorithm H
	gateway bool // route through meshgate over gatewayBackends daemons

	clients int     // closed-loop clients and open-loop senders (at most nproc)
	rate    float64 // traced run's open-loop window: arrivals per second; 0 has none

	hotSet, hotRadius int     // route-hot: pairs drawn from LocalRandom(m, hotSet, hotRadius, seed)
	zipfS             float64 // route-hot: Zipf exponent over the hot set

	warmBatches int // batch workloads: untimed warm-up requests (route-hot warms on its hot set)
}

// permutations is how many seeded random permutations the batch
// workloads cycle through. Two keep every daemon's chain cache
// thrashing even behind the gateway, whose shard-to-daemon assignment
// varies from run to run: with one permutation a daemon behind the
// gateway may see only a third of the pairs, which fits in its cache.
const permutations = 2

// gatewayBackends is the number of in-process daemons behind meshgate.
const gatewayBackends = 3

var workloads = []workload{
	{
		name: "perm-batch",
		why:  "long paths, almost every pair distinct, working set 2x the chain cache: engine, codec and load accounting dominate",
		side: 256, batch: 512, clients: 2,
		warmBatches: 256, // one pass over both permutations: the chain cache and pools reach steady state
	},
	{
		name: "route-hot",
		why:  "single JSON routes from a Zipf hot set on a side-1024 mesh, 2 clients (traced run adds an open loop at 6000/s): HTTP, JSON and admission dominate, the cache hits",
		side: 1024, clients: 2,
		rate:   6000, // traced run's open loop: about a third of the closed-loop capacity on a 2-core host
		hotSet: 4096, hotRadius: 16, zipfS: 1.1,
	},
	{
		name: "gateway-batch",
		why:  "perm-batch through meshgate over 3 daemons at defaults: the difference to perm-batch is the gateway's cost",
		side: 256, batch: 512, clients: 2, gateway: true,
		warmBatches: 256,
	},
	{
		name: "ksample-batch",
		why:  "perm-batch inputs with KSample=4 in 128-pair batches: the only mix that runs k-sample scoring and live snapshots",
		side: 256, batch: 128, clients: 2, ksample: 4,
		warmBatches: 512, // half a pass, 65,536 routes: one k=4 route costs about 4.4 k=1 routes
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload for smoke tests: same code paths, a small
// mesh and little traffic.
func (w workload) tiny() workload {
	w.side = 16
	if w.batch > 32 {
		w.batch = 32
	}
	if w.rate > 0 {
		w.rate = 400
		w.hotSet, w.hotRadius = 64, 4
	}
	w.warmBatches = 8
	return w
}

// capClients caps a client or sender count at the host's CPU count.
func capClients(n int) int {
	if p := runtime.NumCPU(); n > p {
		return p
	}
	return n
}

// inputs are what the benchmark sends, generated from --seed alone.
// The program under test receives only the pairs.
type inputs struct {
	m       *mesh.Mesh
	batches [][]mesh.Pair   // batch workloads: consecutive cuts of the random permutations
	warm    []mesh.Pair     // single routes: untimed warm-up routes (the whole hot set, twice)
	singles []mesh.Pair     // single routes: the pair of request i (cycled) and of open-loop arrival i
	due     []time.Duration // open loop: arrival i's offset from the window start
}

// oddSeed maps distinct seeds to distinct odd seeds: the workload
// generators force the low seed bit to one, so seeds 2k and 2k+1 would
// otherwise draw the same inputs.
func oddSeed(s uint64) uint64 { return s<<1 | 1 }

func makeInputs(w workload, seed uint64, seconds float64) (*inputs, error) {
	m, err := mesh.New(w.side, w.side)
	if err != nil {
		return nil, err
	}
	in := &inputs{m: m}
	if w.batch > 0 {
		for p := uint64(0); p < permutations; p++ {
			pairs := gen.RandomPermutation(m, oddSeed(seed*permutations+p)).Pairs
			for lo := 0; lo < len(pairs); lo += w.batch {
				in.batches = append(in.batches, pairs[lo:min(lo+w.batch, len(pairs))])
			}
		}
		return in, nil
	}
	hot := gen.LocalRandom(m, w.hotSet, w.hotRadius, oddSeed(seed)).Pairs
	in.warm = append(append(in.warm, hot...), hot...)
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(len(hot)-1))
	n := int(math.Ceil(w.rate * seconds))
	in.singles = make([]mesh.Pair, n)
	in.due = make([]time.Duration, n)
	var at float64 // seconds; Poisson arrivals at w.rate
	for i := range in.singles {
		in.singles[i] = hot[zipf.Uint64()]
		in.due[i] = time.Duration(at * float64(time.Second))
		at += rng.ExpFloat64() / w.rate
	}
	return in, nil
}

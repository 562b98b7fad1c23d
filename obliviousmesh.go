package obliviousmesh

import (
	"obliviousmesh/internal/baseline"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/sim"
	"obliviousmesh/internal/workload"
)

// Re-exported fundamental types. The facade keeps the examples and
// external users on one import while the implementation stays in
// focused internal packages.
type (
	// Mesh is a d-dimensional mesh network (paper §2).
	Mesh = mesh.Mesh
	// Coord addresses a node by its per-dimension coordinates.
	Coord = mesh.Coord
	// NodeID is a linear node index.
	NodeID = mesh.NodeID
	// EdgeID identifies an undirected mesh edge.
	EdgeID = mesh.EdgeID
	// Box is an axis-aligned submesh.
	Box = mesh.Box
	// Path is a walk through the mesh.
	Path = mesh.Path
	// SegPath is the run-length representation of a walk: a start node
	// plus axis-aligned (dimension, signed run) segments. Convert with
	// Path.Compress and SegPath.Expand; Router.SegPath selects it
	// natively.
	SegPath = mesh.SegPath
	// Seg is one axis-aligned run of a SegPath.
	Seg = mesh.Seg
	// Pair is one packet request (source, destination).
	Pair = mesh.Pair
	// Problem is a named routing problem Π.
	Problem = workload.Problem
	// Router is the paper's algorithm H.
	Router = core.Selector
	// RouterStats is per-packet accounting (random bits, bridge, ...).
	RouterStats = core.Stats
	// Report bundles congestion/dilation/stretch and the C* lower
	// bound for a routed problem.
	Report = metrics.Report
	// SimResult reports a store-and-forward schedule of the selected
	// paths.
	SimResult = sim.Result
	// PathSelector is the interface shared by algorithm H and all
	// oblivious baselines.
	PathSelector = baseline.PathSelector
	// LiveLoads is the sharded streaming edge-load tracker: lock-free
	// run-length counters (two atomic adds per straight run) for
	// accounting congestion while routing, the online counterpart of
	// the batch Evaluate.
	LiveLoads = metrics.LiveLoads
	// EdgeObserver receives each packet's edges during fused batch
	// selection (SelectHooks.Edge).
	EdgeObserver = core.Observer
	// SelectRequest is one batch for Router.Select, the router's one
	// batch entry point: pairs, stream base, workers, an optional
	// k-sample snapshot, exactly one output slice (hop Paths or run
	// Segs) and per-packet hooks.
	SelectRequest = core.Request
	// SelectHooks are the per-packet observers of a SelectRequest;
	// each receives the packet's stream.
	SelectHooks = core.Hooks
	// TableStats is a snapshot of the router's compiled routing-table
	// size (levels, families, 1-D cells, resident bytes); see
	// Router.RouteTableStats.
	TableStats = metrics.TableStats
	// ChainSource selects the router's chain backend: the compiled
	// routing table (default) or per-packet recomputation.
	ChainSource = core.ChainSource
	// KSampleStats is the sampling accounting of the semi-oblivious
	// k-sample mode: candidates drawn, re-draw wins, and the committed
	// snapshot-score distribution.
	KSampleStats = core.KStats
)

// Chain-source values for RouterOptions.ChainSource. Both backends
// select byte-identical paths.
const (
	// ChainSourceTable (the default) compiles the decomposition into
	// per-level interval tables of a few KiB: warm dispatch with no
	// hashing, locks or allocation; see Router.RouteTableStats.
	ChainSourceTable = core.ChainSourceTable
	// ChainSourceNone recomputes every chain (ablation).
	ChainSourceNone = core.ChainSourceNone
)

// RouterOptions configure NewRouter.
type RouterOptions struct {
	// Seed keys all per-packet randomness; same seed, same paths.
	Seed uint64
	// General selects the d-dimensional construction of §4 even on
	// 2-dimensional meshes. By default 2-D meshes use the specialized
	// §3 construction (stretch ≤ 64) and higher dimensions use §4.
	General bool
	// ChainSource overrides the chain backend: ChainSourceTable (the
	// zero value) resolves chains from compiled interval tables,
	// ChainSourceNone recomputes them per packet. Both select
	// byte-identical paths.
	ChainSource ChainSource
	// KSample enables semi-oblivious k-sample selection: each packet
	// draws KSample independent algorithm-H candidates and Router.Select
	// with a load snapshot (SelectRequest.Snapshot) commits the one with
	// the least maximum live edge load, ties broken by candidate index.
	// 0 and 1 mean pure algorithm H — byte-identical paths to an
	// unsampled router. The plain selection methods stay oblivious
	// regardless of KSample.
	KSample int
}

// NewMesh constructs a d-dimensional mesh with equal side lengths.
// Algorithm H additionally requires side to be a power of two.
func NewMesh(d, side int) (*Mesh, error) { return mesh.Square(d, side) }

// NewTorus constructs a d-dimensional torus with equal side lengths —
// the topology under which the paper's Lemmas 3.3 and 4.1 are exact
// (translated submeshes wrap instead of clipping).
func NewTorus(d, side int) (*Mesh, error) { return mesh.SquareTorus(d, side) }

// NewMeshDims constructs a mesh with the given per-dimension sides.
func NewMeshDims(dims ...int) (*Mesh, error) { return mesh.New(dims...) }

// NewRouter builds algorithm H for the mesh.
func NewRouter(m *Mesh, opt RouterOptions) (*Router, error) {
	v := core.VariantGeneral
	if m.Dim() == 2 && !opt.General {
		v = core.Variant2D
	}
	return core.NewSelector(m, core.Options{
		Variant: v, Seed: opt.Seed,
		ChainSource: opt.ChainSource,
		KSample:     opt.KSample,
	})
}

// Evaluate computes congestion, dilation, stretch and the C* lower
// bound of a set of selected paths for a routing problem.
func Evaluate(m *Mesh, pairs []Pair, paths []Path) (Report, error) {
	mode := decomp.ModeGeneral
	if m.Dim() == 2 {
		mode = decomp.Mode2D
	}
	dc, err := decomp.New(m, mode)
	if err != nil {
		return Report{}, err
	}
	return metrics.Evaluate(dc, pairs, paths), nil
}

// Simulate schedules the paths under the paper's synchronous
// half-duplex store-and-forward model and returns the makespan and
// related statistics.
func Simulate(m *Mesh, paths []Path) SimResult {
	return sim.Run(m, paths, sim.FurthestToGo)
}

// SimulateWithDelays is Simulate with Leighton–Maggs–Rao-style random
// initial delays uniform in [0, maxDelay] (0 disables them).
func SimulateWithDelays(m *Mesh, paths []Path, maxDelay int, seed uint64) SimResult {
	return sim.RunOpts(m, paths, sim.Options{
		Discipline: sim.FurthestToGo,
		Delays:     sim.UniformDelays(len(paths), maxDelay, seed),
	})
}

// SelectAll routes a whole problem with any oblivious selector, packet
// i using randomness stream i.
func SelectAll(ps PathSelector, pairs []Pair) []Path {
	return baseline.SelectAll(ps, pairs)
}

// NewLiveLoads builds a streaming edge-load tracker for m. shards ≤ 0
// picks a default sized to the machine; see metrics.LiveLoads for the
// sharding scheme.
func NewLiveLoads(m *Mesh, shards int) *LiveLoads {
	return metrics.NewLiveLoads(m, shards)
}

// EvaluateSeg computes the §2 report of a run-length path set — equal
// to Evaluate on the expanded paths, computed run by run without
// expansion.
func EvaluateSeg(m *Mesh, pairs []Pair, sps []SegPath) (Report, error) {
	mode := decomp.ModeGeneral
	if m.Dim() == 2 {
		mode = decomp.Mode2D
	}
	dc, err := decomp.New(m, mode)
	if err != nil {
		return Report{}, err
	}
	return metrics.EvaluateSeg(dc, pairs, sps), nil
}

// Baselines returns the oblivious comparison algorithms of the paper's
// related-work section, ready to run on m.
func Baselines(m *Mesh, seed uint64) []PathSelector {
	out := []PathSelector{
		baseline.DimOrder{M: m},
		baseline.RandomDimOrder{M: m, Seed: seed},
		baseline.RandomMonotone{M: m, Seed: seed},
		baseline.Valiant{M: m, Seed: seed},
	}
	if tree, err := baseline.AccessTree(m, seed); err == nil {
		out = append(out, baseline.Named{Label: "access-tree", Sel: tree})
	}
	return out
}

// Named wraps a Router as a PathSelector with a display label.
func Named(label string, r *Router) PathSelector {
	return baseline.Named{Label: label, Sel: r}
}

// Workload generators (paper §5.1 and standard permutations).
var (
	// RandomPermutation pairs every node with a random destination,
	// forming a permutation.
	RandomPermutation = workload.RandomPermutation
	// Transpose is the coordinate-rotation permutation.
	Transpose = workload.Transpose
	// Tornado shifts every node halfway across dimension 0.
	Tornado = workload.Tornado
	// NearestNeighbor pairs every node with an adjacent node.
	NearestNeighbor = workload.NearestNeighbor
	// LocalExchange is the distance-l block-exchange permutation of
	// §5.1.
	LocalExchange = workload.LocalExchange
	// Adversarial builds the problem Π_A of §5.1 against an
	// algorithm.
	Adversarial = workload.Adversarial
	// BitComplement reflects every coordinate through the center.
	BitComplement = workload.BitComplement
	// Shuffle is the perfect-shuffle permutation of node indices.
	Shuffle = workload.Shuffle
	// LocalRandom draws pairs within a fixed L1 radius.
	LocalRandom = workload.LocalRandom
	// EdgeToEdge permutes one mesh face onto the opposite face.
	EdgeToEdge = workload.EdgeToEdge
	// Rotation shifts every node by k in every dimension (wrapping).
	Rotation = workload.Rotation
)

// Package cli holds the option parsing and object construction shared
// by the command-line tools, factored out of the mains so that it is
// unit-testable: algorithm and workload registries, coordinate/pair
// parsing, and topology construction.
package cli

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"obliviousmesh/internal/baseline"
	"obliviousmesh/internal/core"
	"obliviousmesh/internal/decomp"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// BuildMesh constructs the requested topology.
func BuildMesh(d, side int, torus bool) (*mesh.Mesh, error) {
	if torus {
		return mesh.SquareTorus(d, side)
	}
	return mesh.Square(d, side)
}

// DecompMode returns the natural decomposition mode for a mesh: the
// §3 construction on 2-D meshes, §4 otherwise.
func DecompMode(m *mesh.Mesh) decomp.Mode {
	if m.Dim() == 2 {
		return decomp.Mode2D
	}
	return decomp.ModeGeneral
}

// AlgorithmNames lists the selectable algorithms, sorted.
func AlgorithmNames() []string {
	names := []string{"H", "H-general", "access-tree", "dim-order",
		"rand-dim-order", "rand-monotone", "valiant"}
	sort.Strings(names)
	return names
}

// BuildAlgorithm constructs a named oblivious path selector. The
// non-oblivious "offline" comparator is not a PathSelector and is
// handled separately by callers.
func BuildAlgorithm(name string, m *mesh.Mesh, seed uint64) (baseline.PathSelector, error) {
	return BuildAlgorithmSource(name, m, seed, core.ChainSourceTable)
}

// BuildAlgorithmSource is BuildAlgorithm with an explicit chain source
// for the core selectors (the -chainsource flag of meshroute): the
// compiled routing table or per-packet recomputation. Baselines have
// no chain state and ignore the choice.
func BuildAlgorithmSource(name string, m *mesh.Mesh, seed uint64, src core.ChainSource) (baseline.PathSelector, error) {
	switch name {
	case "H":
		v := core.VariantGeneral
		if m.Dim() == 2 {
			v = core.Variant2D
		}
		sel, err := core.NewSelector(m, core.Options{Variant: v, Seed: seed,
			ChainSource: src})
		if err != nil {
			return nil, err
		}
		return baseline.Named{Label: "H", Sel: sel}, nil
	case "H-general":
		sel, err := core.NewSelector(m, core.Options{Variant: core.VariantGeneral, Seed: seed,
			ChainSource: src})
		if err != nil {
			return nil, err
		}
		return baseline.Named{Label: "H-general", Sel: sel}, nil
	case "access-tree":
		sel, err := baseline.AccessTree(m, seed)
		if err != nil {
			return nil, err
		}
		return baseline.Named{Label: "access-tree", Sel: sel}, nil
	case "dim-order":
		return baseline.DimOrder{M: m}, nil
	case "rand-dim-order":
		return baseline.RandomDimOrder{M: m, Seed: seed}, nil
	case "rand-monotone":
		return baseline.RandomMonotone{M: m, Seed: seed}, nil
	case "valiant":
		return baseline.Valiant{M: m, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (have %s)",
			name, strings.Join(AlgorithmNames(), ", "))
	}
}

// WorkloadNames lists the selectable workloads, sorted.
func WorkloadNames() []string {
	names := []string{"permutation", "transpose", "bit-reversal", "tornado",
		"nearest-neighbor", "local-exchange", "adversarial", "bit-complement",
		"shuffle", "edge-to-edge", "hot-spot", "rotation"}
	sort.Strings(names)
	return names
}

// BuildWorkload constructs the requested problem. l parameterizes the
// local-exchange and adversarial workloads; algo is the victim of the
// adversarial construction. The returned EdgeID is only meaningful for
// "adversarial" (the pinned edge); it is zero otherwise.
func BuildWorkload(name string, m *mesh.Mesh, seed uint64, l int,
	algo baseline.PathSelector) (workload.Problem, mesh.EdgeID, error) {
	switch name {
	case "permutation":
		return workload.RandomPermutation(m, seed), 0, nil
	case "transpose":
		return workload.Transpose(m), 0, nil
	case "bit-reversal":
		p, err := workload.BitReversal(m)
		return p, 0, err
	case "tornado":
		return workload.Tornado(m), 0, nil
	case "nearest-neighbor":
		return workload.NearestNeighbor(m), 0, nil
	case "local-exchange":
		p, err := workload.LocalExchange(m, l)
		return p, 0, err
	case "bit-complement":
		return workload.BitComplement(m), 0, nil
	case "shuffle":
		p, err := workload.Shuffle(m)
		return p, 0, err
	case "edge-to-edge":
		return workload.EdgeToEdge(m, seed), 0, nil
	case "hot-spot":
		return workload.HotSpot(m, m.Size(), 3, seed), 0, nil
	case "rotation":
		return workload.Rotation(m, l), 0, nil
	case "adversarial":
		if algo == nil {
			return workload.Problem{}, 0, fmt.Errorf("adversarial workload needs a victim algorithm")
		}
		return workload.Adversarial(m, l, algo.Path, 1)
	default:
		return workload.Problem{}, 0, fmt.Errorf("unknown workload %q (have %s)",
			name, strings.Join(WorkloadNames(), ", "))
	}
}

// ParseCoord parses "x,y,..." with exactly d components.
func ParseCoord(s string, d int) (mesh.Coord, error) {
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("coordinate %q needs %d components", s, d)
	}
	c := make(mesh.Coord, d)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("coordinate %q: %w", s, err)
		}
		c[i] = v
	}
	return c, nil
}

// ParsePair parses "x1,y1:x2,y2" into two in-bounds coordinates.
func ParsePair(s string, m *mesh.Mesh) (src, dst mesh.Coord, err error) {
	halves := strings.SplitN(s, ":", 2)
	if len(halves) != 2 {
		return nil, nil, fmt.Errorf("pair %q needs the form \"src:dst\"", s)
	}
	src, err = ParseCoord(halves[0], m.Dim())
	if err != nil {
		return nil, nil, err
	}
	dst, err = ParseCoord(halves[1], m.Dim())
	if err != nil {
		return nil, nil, err
	}
	if !m.InBounds(src) || !m.InBounds(dst) {
		return nil, nil, fmt.Errorf("pair %q out of bounds for %v", s, m)
	}
	return src, dst, nil
}

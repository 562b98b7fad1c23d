package serial

import (
	"encoding/json"
	"fmt"
	"io"

	"obliviousmesh/internal/core"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/workload"
)

// CompactRunFile stores a routing run WITHOUT the paths: because
// algorithm H is oblivious and deterministic given (seed, stream, s,
// t), the paths are a pure function of the selector configuration and
// the pair list, so persisting the configuration is enough to rebuild
// them exactly. A checksum of the original paths guards against
// implementation drift: if a code change alters the algorithm's
// output, loading an old compact run fails loudly instead of silently
// reproducing different paths.
//
// For a 1024-packet run on a 32x32 mesh this is ~25x smaller than the
// full RunFile.
type CompactRunFile struct {
	Mesh     MeshSpec    `json:"mesh"`
	Workload string      `json:"workload"`
	Variant  string      `json:"variant"` // "2d" or "general"
	Seed     uint64      `json:"seed"`
	Options  CompactOpts `json:"options"`
	Pairs    [][2]int    `json:"pairs"`
	Checksum uint64      `json:"checksum"`
}

// CompactOpts mirrors the core.Options knobs that affect paths.
type CompactOpts struct {
	FixedDimOrder  bool    `json:"fixedDimOrder,omitempty"`
	DisableBridges bool    `json:"disableBridges,omitempty"`
	FreshBits      bool    `json:"freshBits,omitempty"`
	KeepCycles     bool    `json:"keepCycles,omitempty"`
	BridgeFactor   float64 `json:"bridgeFactor,omitempty"`
}

// PathsChecksum hashes a path set (FNV-1a over node sequences with
// length framing) — the OMP1 trailer of the same set.
func PathsChecksum(paths []mesh.Path) uint64 {
	var ph pathsHasher
	ph.init(len(paths))
	for _, p := range paths {
		ph.add(p)
	}
	return ph.sum64()
}

// SaveCompact persists the configuration of a run routed by a core
// selector. The paths are only used to compute the checksum.
func SaveCompact(w io.Writer, prob workload.Problem, opt core.Options, paths []mesh.Path) error {
	variant := "general"
	if opt.Variant == core.Variant2D {
		variant = "2d"
	}
	cf := CompactRunFile{
		Mesh:     Spec(prob.M),
		Workload: prob.Name,
		Variant:  variant,
		Seed:     opt.Seed,
		Options: CompactOpts{
			FixedDimOrder:  opt.FixedDimOrder,
			DisableBridges: opt.DisableBridges,
			FreshBits:      opt.FreshBits,
			KeepCycles:     opt.KeepCycles,
			BridgeFactor:   opt.BridgeFactor,
		},
		Pairs:    make([][2]int, len(prob.Pairs)),
		Checksum: PathsChecksum(paths),
	}
	for i, pr := range prob.Pairs {
		cf.Pairs[i] = [2]int{int(pr.S), int(pr.T)}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cf)
}

// LoadCompact rebuilds the problem, the selector and the exact paths
// of a compact run, verifying the checksum.
func LoadCompact(r io.Reader) (workload.Problem, []mesh.Path, error) {
	var cf CompactRunFile
	if err := json.NewDecoder(r).Decode(&cf); err != nil {
		return workload.Problem{}, nil, fmt.Errorf("serial: decode compact run: %w", err)
	}
	m, err := cf.Mesh.Build()
	if err != nil {
		return workload.Problem{}, nil, fmt.Errorf("serial: rebuild mesh: %w", err)
	}
	variant := core.VariantGeneral
	if cf.Variant == "2d" {
		variant = core.Variant2D
	} else if cf.Variant != "general" {
		return workload.Problem{}, nil, fmt.Errorf("serial: unknown variant %q", cf.Variant)
	}
	sel, err := core.NewSelector(m, core.Options{
		Variant:        variant,
		Seed:           cf.Seed,
		FixedDimOrder:  cf.Options.FixedDimOrder,
		DisableBridges: cf.Options.DisableBridges,
		FreshBits:      cf.Options.FreshBits,
		KeepCycles:     cf.Options.KeepCycles,
		BridgeFactor:   cf.Options.BridgeFactor,
	})
	if err != nil {
		return workload.Problem{}, nil, fmt.Errorf("serial: rebuild selector: %w", err)
	}
	prob := workload.Problem{M: m, Name: cf.Workload, Pairs: make([]mesh.Pair, len(cf.Pairs))}
	for i, pr := range cf.Pairs {
		if pr[0] < 0 || pr[0] >= m.Size() || pr[1] < 0 || pr[1] >= m.Size() {
			return workload.Problem{}, nil, fmt.Errorf("serial: pair %d out of range", i)
		}
		prob.Pairs[i] = mesh.Pair{S: mesh.NodeID(pr[0]), T: mesh.NodeID(pr[1])}
	}
	paths, _ := sel.SelectAll(prob.Pairs)
	if got := PathsChecksum(paths); got != cf.Checksum {
		return workload.Problem{}, nil, fmt.Errorf(
			"serial: rebuilt paths checksum %x does not match stored %x (algorithm drift?)",
			got, cf.Checksum)
	}
	return prob, paths, nil
}

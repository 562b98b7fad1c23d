package metrics

import "fmt"

// TableStats is a snapshot of a compiled routing table's size (see
// internal/routetab). A table has no hit/miss dynamics: every lookup
// resolves from the compiled arrays, so the only health figures are
// how much was compiled and what it costs to keep resident — the axis
// Compact Oblivious Routing (Räcke & Schmid) measures oblivious
// schemes on.
type TableStats struct {
	Levels   int   // decomposition levels compiled
	Families int   // (level, family) interval tables compiled
	Cells    int64 // 1-D intervals across all tables
	Bytes    int64 // resident bytes of all tables
}

// String renders the snapshot for CLI reporting.
func (s TableStats) String() string {
	return fmt.Sprintf("%d levels, %d families, %d cells, %.1f KiB",
		s.Levels, s.Families, s.Cells, float64(s.Bytes)/(1<<10))
}

// Package workload holds what the paper's two workloads (§4–§6) share
// with the rest of the tree, and the robustness harness built on them:
//
//   - NewWORMTable builds the pre-allocated table of a WORM
//     (write-once-read-many) point, with the §4.5 memory-budget directory
//     sizing for the chained schemes.
//   - Tape and GenRWTape pre-generate an RW (read-write) operation stream
//     (§6): insert:delete = 4:1 within updates, successful:unsuccessful =
//     3:1 within lookups, so identical tapes replay against every table.
//   - RunChaos replays concurrent RW tapes against one sharded handle under
//     a seeded fault schedule and checks it against map oracles.
//
// The WORM and RW points that time the paper's figures live in bench.
package workload

import (
	"repro/hashfn"
	"repro/table"
)

// NewWORMTable builds an empty growth-disabled table for a WORM experiment,
// applying the §4.5 memory-budget directory sizing to the chained schemes.
// It uses New rather than Open because callers reach the schemes'
// diagnostics (Displacements, ChainLengths, WayOccupancy, ...) from the
// returned Table through interface assertions, which a Handle does not
// offer. Overfilling it is ErrFull.
func NewWORMTable(scheme table.Scheme, family hashfn.Family, capacity int, alpha float64, seed uint64) (table.Table, error) {
	cfg := table.Config{
		InitialCapacity: capacity,
		MaxLoadFactor:   0, // WORM tables are pre-allocated and never rehash
		Family:          family,
		Seed:            seed,
	}
	switch scheme {
	case table.SchemeChained8:
		cfg.InitialCapacity = table.Chained8DirectorySlots(alpha, capacity)
	case table.SchemeChained24:
		cfg.InitialCapacity = table.Chained24DirectorySlots(alpha, capacity)
	}
	return table.New(scheme, cfg)
}

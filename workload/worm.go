// Package workload implements the paper's two workload drivers (§4–§6):
//
//   - WORM (write-once-read-many): bulk-build a table to a target load
//     factor, then probe it with lookup mixes ranging from all-successful
//     to all-unsuccessful. This simulates the static, OLAP-style indexing
//     use of hash tables (and, per §4, closely resembles join build/probe
//     and aggregation).
//   - RW (read-write): a long mixed stream of inserts, deletes and lookups
//     against a growing table, simulating the dynamic, OLTP-style case
//     (§6): insert:delete = 4:1 within updates, successful:unsuccessful =
//     3:1 within lookups, with configurable update percentage and
//     grow-at thresholds.
//
// Both drivers pre-generate their key/op tapes outside the timed sections,
// so identical tapes are replayed against every scheme; measured loops
// contain nothing but table operations (plus, for RW, an index increment).
package workload

import (
	"fmt"
	"time"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

// DefaultMixes is the paper's unsuccessful-lookup sweep: 0, 25, 50, 75 and
// 100 percent of probes miss.
var DefaultMixes = []int{0, 25, 50, 75, 100}

// WORMConfig parameterizes one WORM experiment point.
type WORMConfig struct {
	Scheme table.Scheme
	Family hashfn.Family
	Dist   dist.Kind
	// Capacity is the open-addressing capacity l (power of two). Chained
	// schemes get their directory sized from it per §4.5.
	Capacity int
	// LoadFactor is alpha; the table is built with n = alpha*Capacity keys.
	LoadFactor float64
	// Mixes lists unsuccessful-lookup percentages to measure; nil means
	// DefaultMixes.
	Mixes []int
	// Lookups is the number of probe operations per mix; 0 means n.
	Lookups int
	Seed    uint64
}

// WORMResult reports one WORM experiment point.
type WORMResult struct {
	Label string // e.g. "LPMult"
	N     int    // keys inserted

	InsertMops  float64
	LookupMops  map[int]float64 // unsuccessful-% -> M lookups/second
	MemoryBytes uint64

	// Stats is the built table's observability snapshot (probe and
	// displacement measures, tombstones, rehashes, memory).
	Stats table.Stats

	// OverBudget is set for chained tables whose final footprint exceeded
	// the §4.5 memory budget (110% of the open-addressing footprint); the
	// paper excludes such configurations.
	OverBudget bool
}

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

// RunWORM executes one WORM experiment point: timed bulk build, then one
// timed probe phase per lookup mix. It validates that every mix observed
// exactly the expected number of hits and returns an error otherwise.
func RunWORM(cfg WORMConfig) (WORMResult, error) {
	if cfg.Capacity <= 0 {
		return WORMResult{}, fmt.Errorf("workload: WORM capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.LoadFactor <= 0 || cfg.LoadFactor >= 1 {
		return WORMResult{}, fmt.Errorf("workload: WORM load factor must be in (0,1), got %v", cfg.LoadFactor)
	}
	if cfg.Family == nil {
		cfg.Family = hashfn.MultFamily{}
	}
	mixes := cfg.Mixes
	if mixes == nil {
		mixes = DefaultMixes
	}
	n := int(cfg.LoadFactor * float64(cfg.Capacity))
	m, err := NewWORMTable(cfg.Scheme, cfg.Family, cfg.Capacity, cfg.LoadFactor, cfg.Seed)
	if err != nil {
		return WORMResult{}, err
	}
	res := WORMResult{
		Label:      string(cfg.Scheme) + cfg.Family.Name(),
		N:          n,
		LookupMops: make(map[int]float64, len(mixes)),
	}

	gen := dist.New(cfg.Dist, cfg.Seed)
	insertKeys := dist.Shuffled(gen.Keys(n), cfg.Seed+1)

	start := time.Now()
	for i, k := range insertKeys {
		if _, err := m.Put(k, uint64(i)); err != nil {
			return res, fmt.Errorf("workload: WORM build of %s: %w", res.Label, err)
		}
	}
	res.InsertMops = mops(n, time.Since(start))

	if m.Len() != n {
		return res, fmt.Errorf("workload: WORM build of %s expected %d entries, table has %d", res.Label, n, m.Len())
	}

	lookups := cfg.Lookups
	if lookups <= 0 {
		lookups = n
	}
	for _, u := range mixes {
		probes, wantHits := wormProbeTape(gen, insertKeys, n, lookups, u, cfg.Seed+uint64(u)+2)
		var hits int
		var sink uint64
		start = time.Now()
		for _, k := range probes {
			if v, ok := m.Get(k); ok {
				hits++
				sink ^= v
			}
		}
		elapsed := time.Since(start)
		_ = sink
		if hits != wantHits {
			return res, fmt.Errorf("workload: WORM probe of %s at %d%% unsuccessful: got %d hits, want %d", res.Label, u, hits, wantHits)
		}
		res.LookupMops[u] = mops(len(probes), elapsed)
	}

	res.MemoryBytes = m.MemoryFootprint()
	res.Stats = table.StatsOf(m)
	budget := uint64(table.ChainedBudgetFactor * 16 * float64(cfg.Capacity))
	if (cfg.Scheme == table.SchemeChained8 || cfg.Scheme == table.SchemeChained24) && res.MemoryBytes > budget {
		res.OverBudget = true
	}
	return res, nil
}

// wormProbeTape builds a probe-key tape of the requested length where
// unsuccessfulPct percent of keys are absent from the table (drawn from the
// same distribution at indexes >= n) and the rest are present keys. The
// tape is shuffled so hits and misses interleave randomly.
func wormProbeTape(gen dist.Generator, present []uint64, n, lookups, unsuccessfulPct int, seed uint64) (probes []uint64, wantHits int) {
	miss := lookups * unsuccessfulPct / 100
	hit := lookups - miss
	probes = make([]uint64, 0, lookups)
	for i := 0; i < hit; i++ {
		probes = append(probes, present[i%len(present)])
	}
	probes = append(probes, gen.AbsentKeys(n, miss)...)
	return dist.Shuffled(probes, seed), hit
}

// mops converts an operation count and duration into millions of
// operations per second.
func mops(ops int, d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(ops) / 1e6 / s
}

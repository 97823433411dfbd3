// Package join implements in-memory equi-joins on top of the hash tables —
// the query-processing use case that motivates the paper (§1: "hashing has
// plenty of applications in modern database systems, including join
// processing"). Three operators are provided:
//
//   - HashJoin: the classic two-phase build/probe join over one
//     single-threaded table. The build phase is a WORM write phase, the
//     probe phase a read phase with whatever unsuccessful-probe ratio the
//     outer relation induces — exactly the workload the paper measures, so
//     its scheme recommendations apply verbatim.
//   - PartitionedHashJoin: the partition-based parallel variant the paper
//     cites (Balkesen et al., Barber et al., Lang et al.): radix-partition
//     both inputs, then run one independent single-threaded join per
//     partition.
//   - NestedLoopJoin: the O(n*m) reference implementation used by the test
//     suite as a correctness oracle.
//
// Joins here are primary-key / foreign-key joins: build-side keys are
// unique. Should duplicates occur anyway, the first payload per key wins —
// the natural semantics of the single-probe GetOrPutBatch build, which
// finds a key or claims its slot in one probe sequence per row. Each
// match invokes a caller-supplied emit function, so callers can
// materialize, count, or aggregate without intermediate allocation.
package join

import (
	"context"
	"fmt"

	"repro/decision"
	"repro/exec"
	"repro/hashfn"
	"repro/partition"
	"repro/table"
)

// Row is one tuple of a relation: a join key and a payload.
type Row struct {
	Key     uint64
	Payload uint64
}

// Relation is a slice of rows.
type Relation []Row

// Keys returns the keys of the relation (for partitioning and probing).
func (r Relation) Keys() []uint64 {
	out := make([]uint64, len(r))
	for i := range r {
		out[i] = r[i].Key
	}
	return out
}

// Emit receives one join match: the key and both payloads.
type Emit func(key, buildPayload, probePayload uint64)

// Config parameterizes a hash join.
type Config struct {
	// Scheme selects the build-side table; empty lets the paper's Figure 8
	// decision graph pick based on the join's shape.
	Scheme table.Scheme
	// Family is the hash-function class (default Mult, per the paper).
	Family hashfn.Family
	// LoadFactor is the build-side occupancy target (default 0.5: joins
	// are usually memory-rich and probe-bound).
	LoadFactor float64
	// Workers bounds the goroutines the parallel operators fan out
	// (default: exec's one-per-CPU default). PartitionedHashJoin runs one
	// task per partition on a Workers-sized pool — partitions are units of
	// work, not goroutines — and SharedHashJoin's explicit worker argument
	// takes precedence over this field.
	Workers int
	Seed    uint64
	// Ctx, when non-nil, cancels the parallel operators
	// (PartitionedHashJoin, SharedHashJoin) between tasks/morsels: the
	// claim cursor stops like on a first error and ctx.Err() is returned.
	// The serial HashJoin ignores it.
	Ctx context.Context
}

func (c Config) withDefaults(buildRows, probeRows int) Config {
	if c.Family == nil {
		c.Family = hashfn.MultFamily{}
	}
	if c.LoadFactor <= 0 || c.LoadFactor >= 1 {
		c.LoadFactor = 0.5
	}
	if c.Scheme == "" {
		// Ask the decision graph: a join build is a static (WORM) table;
		// reads dominate when the probe side is larger.
		choice := decision.MustRecommend(decision.Workload{
			LoadFactor:      c.LoadFactor,
			UnsuccessfulPct: 25, // unknowable upfront; assume a moderate miss rate
			WriteHeavy:      buildRows > probeRows,
			Dynamic:         false,
			Dense:           false,
		})
		c.Scheme = choice.Scheme
		if c.Scheme == table.SchemeChained24 {
			// Chained needs the §4.5 budget machinery; prefer RH for the
			// automatic path.
			c.Scheme = table.SchemeRH
		}
	}
	return c
}

// CapacityFor returns the power-of-two capacity that places n keys at or
// below the target load factor lf — the build-side pre-sizing rule every
// hash-join build in the repo uses (join's one-shot operators and pipe's
// streaming build consume it alike, so their tables are sized
// identically). lf outside (0, 1) is treated as the join default 0.5.
func CapacityFor(n int, lf float64) int {
	if lf <= 0 || lf >= 1 {
		lf = 0.5
	}
	c := 8
	for float64(n) > lf*float64(c) {
		c *= 2
	}
	return c
}

// joinScratch is the reusable column buffer of one join's batched build and
// probe phases: row keys/payloads are gathered into columns one batch at a
// time, handed to the table's batched pipeline, and the hit lanes emitted.
type joinScratch struct {
	keys [table.BatchWidth]uint64
	vals [table.BatchWidth]uint64
	ok   [table.BatchWidth]bool
}

// buildBatched inserts all rows through the handle's single-probe
// GetOrPutBatch pipeline in row order: each build row costs exactly one
// probe sequence (find the key or claim its slot), instead of the probe
// plus full re-probe a Get-then-Put build would pay. Duplicate build keys
// keep the first payload.
func (sc *joinScratch) buildBatched(h *table.Handle, build Relation) error {
	for base := 0; base < len(build); base += table.BatchWidth {
		n := min(table.BatchWidth, len(build)-base)
		for i := 0; i < n; i++ {
			sc.keys[i] = build[base+i].Key
			sc.vals[i] = build[base+i].Payload
		}
		if _, err := h.GetOrPutBatch(sc.keys[:n], sc.vals[:n], sc.vals[:n], sc.ok[:n]); err != nil {
			return err
		}
	}
	return nil
}

// probeBatched probes all rows through the batched pipeline and emits every
// match, returning the match count.
func (sc *joinScratch) probeBatched(h *table.Handle, probe Relation, emit Emit) int {
	matches := 0
	for base := 0; base < len(probe); base += table.BatchWidth {
		n := min(table.BatchWidth, len(probe)-base)
		for i := 0; i < n; i++ {
			sc.keys[i] = probe[base+i].Key
		}
		matches += h.GetBatch(sc.keys[:n], sc.vals[:n], sc.ok[:n])
		if emit == nil {
			continue
		}
		for i := 0; i < n; i++ {
			if sc.ok[i] {
				emit(sc.keys[i], sc.vals[i], probe[base+i].Payload)
			}
		}
	}
	return matches
}

// HashJoin joins build ⋈ probe on Key, calling emit for every match. It
// returns the number of matches. Duplicate keys on the build side keep the
// first payload (build keys are expected unique — PK/FK joins); the probe
// side may repeat keys freely.
//
// Both phases run through the tables' batched pipelines: rows are gathered
// into one reusable column scratch per phase, so the per-key hash dispatch
// is amortized; the build issues exactly one probe sequence per row via
// GetOrPutBatch, and the probe phase's sequences overlap in the memory
// system.
func HashJoin(build, probe Relation, cfg Config, emit Emit) (int, error) {
	cfg = cfg.withDefaults(len(build), len(probe))
	h, err := table.Open(
		table.WithScheme(cfg.Scheme),
		table.WithCapacity(CapacityFor(len(build), cfg.LoadFactor)),
		table.WithMaxLoadFactor(0), // pre-sized for the build side: WORM contract
		table.WithHashFamily(cfg.Family),
		table.WithSeed(cfg.Seed),
	)
	if err != nil {
		return 0, err
	}
	var sc joinScratch
	if err := sc.buildBatched(h, build); err != nil {
		return 0, err
	}
	return sc.probeBatched(h, probe, emit), nil
}

// PartitionedHashJoin is the partition-parallel build/probe join: both
// relations are radix-partitioned by a shared routing hash, then each
// partition joins independently as one task on the exec pool, with the
// fan-out bounded by cfg.Workers (default one per CPU) rather than one
// goroutine per partition. emit may be called concurrently from different
// partitions and must be safe for that (or nil). It returns the total
// number of matches.
func PartitionedHashJoin(build, probe Relation, partitions int, cfg Config, emit Emit) (int, error) {
	cfg = cfg.withDefaults(len(build), len(probe))
	pm, err := partition.New(partition.Config{
		Partitions: partitions,
		Scheme:     cfg.Scheme,
		Table: table.Config{
			InitialCapacity: CapacityFor(len(build), cfg.LoadFactor),
			MaxLoadFactor:   0,
			Family:          cfg.Family,
			Seed:            cfg.Seed,
		},
	})
	if err != nil {
		return 0, err
	}
	p := pm.Partitions()
	// Partition both inputs with the shared router.
	buildParts := make([]Relation, p)
	probeParts := make([]Relation, p)
	for _, r := range build {
		j := pm.Partition(r.Key)
		buildParts[j] = append(buildParts[j], r)
	}
	for _, r := range probe {
		j := pm.Partition(r.Key)
		probeParts[j] = append(probeParts[j], r)
	}
	// One exec task per partition: build then probe, no shared state; idle
	// workers steal the next unjoined partition, so skewed partitions
	// balance automatically.
	matches := make([]int, p)
	err = exec.RunTasks(exec.Config{Workers: cfg.Workers, Ctx: cfg.Ctx}, p, func(_, j int) error {
		sub := cfg
		sub.Seed = cfg.Seed + uint64(j)*0x9e3779b97f4a7c15
		n, err := HashJoin(buildParts[j], probeParts[j], sub, emit)
		if err != nil {
			return fmt.Errorf("join: partition %d: %w", j, err)
		}
		matches[j] = n
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range matches {
		total += n
	}
	return total, nil
}

// SharedHashJoin is the shared-memory concurrent build/probe join: both
// phases run with the given number of pool workers against ONE table
// served by the sharded engine (a Handle opened WithPartitions, shards =
// power of two >= 2x workers). Unlike PartitionedHashJoin there is no
// up-front radix partitioning pass — the input is carved into exec
// morsels, idle workers claim the next one, and the engine's stable batch
// scatter routes rows to shards under per-shard locks — so it suits
// inputs that arrive pre-chunked (scan morsels) or skewed key spaces
// where radix partitions would be unbalanced. Build keys must be unique (PK/FK joins); when duplicates
// occur anyway, which payload wins is unspecified (workers race on the
// key's shard). emit may be called concurrently and must be safe for
// that (or nil). It returns the total number of matches.
//
// Probe note: on a sharded handle the engine answers GetBatch with
// migration-aware scalar probes under per-shard READ locks (any number
// of probing workers proceed in parallel); the single-table batched
// probe pipeline, which overlaps misses within one probe stream, runs
// only in HashJoin's and PartitionedHashJoin's exclusively-owned tables.
func SharedHashJoin(build, probe Relation, workers int, cfg Config, emit Emit) (int, error) {
	cfg = cfg.withDefaults(len(build), len(probe))
	if workers < 1 {
		workers = 1
	}
	shards := decision.ShardsFor(workers)
	if shards < 1 {
		shards = 1
	}
	h, err := table.Open(
		table.WithScheme(cfg.Scheme),
		table.WithCapacity(CapacityFor(len(build), cfg.LoadFactor)),
		// Pre-sized for the build side like HashJoin, but growth stays
		// enabled as a safety valve: the engine resizes incrementally, so
		// an unlucky shard never fails the build.
		table.WithMaxLoadFactor(table.DefaultMaxLoadFactor),
		table.WithHashFamily(cfg.Family),
		table.WithSeed(cfg.Seed),
		table.WithPartitions(shards),
	)
	if err != nil {
		return 0, err
	}
	// Both phases run on one pool: the input is carved into morsels, idle
	// workers claim the next one, and each worker streams its morsels
	// through its own column scratch into the engine's batched pipelines.
	pool := exec.NewPool(exec.Config{Workers: workers, Ctx: cfg.Ctx})
	defer pool.Close()
	scratch := make([]joinScratch, pool.Workers())
	if err := pool.ForMorsels(len(build), func(w, lo, hi int) error {
		return scratch[w].buildBatched(h, build[lo:hi])
	}); err != nil {
		return 0, err
	}
	// Probe phase: concurrent batched lookups, matches summed at the end.
	matches := make([]int, pool.Workers())
	if err := pool.ForMorsels(len(probe), func(w, lo, hi int) error {
		matches[w] += scratch[w].probeBatched(h, probe[lo:hi], emit)
		return nil
	}); err != nil {
		return 0, err
	}
	total := 0
	for _, m := range matches {
		total += m
	}
	return total, nil
}

// NestedLoopJoin is the quadratic reference join used as a test oracle.
func NestedLoopJoin(build, probe Relation, emit Emit) int {
	// Match HashJoin's GetOrPut build semantics: first payload per key wins.
	first := make(map[uint64]uint64, len(build))
	for _, b := range build {
		if _, ok := first[b.Key]; !ok {
			first[b.Key] = b.Payload
		}
	}
	matches := 0
	for _, p := range probe {
		if v, ok := first[p.Key]; ok {
			matches++
			if emit != nil {
				emit(p.Key, v, p.Payload)
			}
		}
	}
	return matches
}

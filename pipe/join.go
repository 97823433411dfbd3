package pipe

// The streaming hash join: the build side is consumed into one fixed table,
// then each probe batch is answered by one GetBatch whose matches flow
// straight downstream, with no intermediate relation. A bare FromHandle
// build side is not built again: the probe runs against the handle itself.

import (
	"errors"
	"fmt"

	"repro/join"
	"repro/table"
)

// JoinConfig parameterizes a streaming hash join. When the join probes a
// handle in place (see HashJoin) there is no build table to configure:
// only Project is used.
type JoinConfig struct {
	// Scheme pins the build-side table; empty lets the paper's Figure 8
	// pick it from the table's real load factor (see HashJoin).
	Scheme table.Scheme
	// Project maps one match to the row the joined stream emits. The
	// default keeps the join key and the probe payload:
	// (key, probeVal). Group-bys over a build-side attribute supply
	// e.g. func(k, b, p) (b, p).
	Project func(key, buildVal, probeVal uint64) (outKey, outVal uint64)
	Seed    uint64
}

// HashJoin joins build ⋈ probe on key, streaming. Build keys are
// expected unique (PK/FK joins); duplicates keep the first payload
// per key — with more than one worker, which concurrent duplicate is
// "first" is the pool's schedule. The probe side may repeat keys
// freely. Each match is projected through cfg.Project and continues
// downstream; non-matching probe rows are skipped at emission.
//
// The build table is pre-sized from the build stream's cardinality hint
// (slice lengths, Handle.Len, a group count, Hint) to a load factor of at
// most buildLoadFactor, and hashes with Mult, as Figure 8 does. Unless
// cfg.Scheme pins one, its scheme is the paper's Figure 8 (table.Recommend)
// walked for a static, read-mostly table with successful lookups at the load
// factor the sizing really leaves: 1M rows land in 2^21 slots — 0.477, LP —
// exactly 2^20 rows at 0.5, RH.
//
// The private build never opens a shard.Engine (that serves only shared,
// live handles): it is ONE fixed table at every worker count, filled through
// Handle.PutIfAbsentBatch, which every worker calls — a compare-and-swap per
// key for the schemes that hold their entries still (LP, LPSoA, QP), a batch
// at a time under the handle's mutex for RH, Cuckoo and chained — and probed
// with plain GetBatch after the build phase's barrier. A build that overruns
// its table re-runs into one twice the size: doubling wastes about one build.
//
// When build is a bare FromHandle(h) — no Filter or Map on it — the join
// builds nothing: h is the index, and each probe batch is one wait-free
// h.GetBatch, so the join takes no lock on h, allocates no table and leaves
// h as it found it. It then sees h as of each probe batch (validated per
// shard, like any GetBatch), not as of one scan: still the engine's weak
// consistency, but a row written to h while the join runs may match some
// probe batches and not others. Put a stage on the build side to get the
// private build, and with it a per-shard snapshot, back.
func HashJoin(build, probe *Stream, cfg JoinConfig) *Stream {
	return &Stream{src: &joinSource{build: build, probe: probe, cfg: cfg}}
}

type joinSource struct {
	build, probe *Stream
	cfg          JoinConfig
}

// rows: every probe row matches at most once (unique build keys), so the
// probe bound is the join's bound.
func (j *joinSource) rows() int { return j.probe.size() }

// buildLoadFactor is the build table's occupancy ceiling: joins are
// memory-rich and probe-bound. The capacity is a power of two, so the table
// runs in (buildLoadFactor/2, buildLoadFactor].
const buildLoadFactor = 0.5

// openBuild opens the build table: one growth-disabled table of
// join.CapacityFor slots for the cardinality hint, with the scheme Figure 8
// picks for its real load factor unless the config pins one. After a refused
// table it is sized for twice the rows that one held, in ≥ twice its slots.
func (j *joinSource) openBuild(refused *table.FullError) (*table.Handle, error) {
	n := j.build.size()
	slots := join.CapacityFor(n, buildLoadFactor)
	if refused != nil {
		n = 2 * refused.Len
		slots = max(join.CapacityFor(n, buildLoadFactor), 2*refused.Capacity)
	}
	opts := []table.Option{table.WithSeed(j.cfg.Seed), table.WithCapacity(slots), table.WithMaxLoadFactor(0)}
	if j.cfg.Scheme != "" {
		opts = append(opts, table.WithScheme(j.cfg.Scheme))
	} else { // static, read-mostly, lookups succeed (the PK/FK contract)
		opts = append(opts, table.WithWorkload(table.Workload{LoadFactor: float64(max(n, 1)) / float64(slots)}))
	}
	return table.Open(opts...)
}

// buildTable opens the build table and drains the build stream into it, one
// PutIfAbsentBatch per batch. The call returns no values — the join never
// read them, and that is what lets workers share a fixed table; the pool's
// barrier ending the phase orders the inserts before the probe's plain reads.
func (j *joinSource) buildTable(rt *runtime, refused *table.FullError) (*table.Handle, error) {
	h, err := j.openBuild(refused)
	if err != nil {
		return nil, fmt.Errorf("pipe: join build table: %w", err)
	}
	return h, j.build.src.run(rt, j.build.stages, func(w int, keys, vals []uint64) error {
		start := rt.opStart()
		_, err := h.PutIfAbsentBatch(keys, vals)
		rt.opDone(opJoinBuild, w, len(keys), len(keys), start)
		if err != nil {
			return fmt.Errorf("pipe: join build: %w", err)
		}
		return nil
	})
}

// indexed returns the handle to probe in place: the one a bare FromHandle
// build side would scan. Behind a stage the handle's rows are not the
// build rows, so that, like any other source, gets nil and a private build.
func (j *joinSource) indexed() *table.Handle {
	if hs, ok := j.build.src.(*handleSource); ok && len(j.build.stages) == 0 {
		return hs.h
	}
	return nil
}

func (j *joinSource) run(rt *runtime, stages []stage, sink batchSink) error {
	h := j.indexed()
	if h == nil {
		// Build phase: re-run the stream into a larger table while the last
		// one was full; an injected refusal (Len -1) surfaces instead.
		var err error
		var refused *table.FullError
		for h, err = j.buildTable(rt, nil); errors.As(err, &refused) && refused.Len >= 0; {
			h, err = j.buildTable(rt, refused)
		}
		if err != nil {
			return err
		}
	}
	// Probe phase: each probe batch is answered by one GetBatch; the
	// matches are projected in place into the batch the probe side handed
	// over (the write cursor never passes the read cursor, as in Filter)
	// and pushed through the downstream stages in the same pass — no
	// intermediate join result exists anywhere.
	answers := rt.takeBatches(rt.pool.Workers())
	defer putBatches(answers)
	project := j.cfg.Project
	return j.probe.src.run(rt, j.probe.stages, func(w int, keys, vals []uint64) error {
		start := rt.opStart()
		a := answers[w]
		out, ok := a.vals[:len(keys)], a.ok[:len(keys)]
		vals = vals[:len(keys)]
		h.GetBatch(keys, out, ok)
		n := 0
		if project == nil {
			// The default projection (key, probeVal), without the
			// indirect call per match.
			for i, k := range keys {
				keys[n], vals[n] = k, vals[i]
				if ok[i] {
					n++
				}
			}
		} else {
			for i, k := range keys {
				if ok[i] {
					keys[n], vals[n] = project(k, out[i], vals[i])
					n++
				}
			}
		}
		return rt.emit(opJoinProbe, w, stages, sink, &batch{keys: keys, vals: vals}, len(keys), n, start)
	})
}

package pipe

// The streaming hash join: the build side is consumed into a pre-sized
// table through the single-probe GetOrPutBatch pipeline, then the probe
// side streams morsel-at-a-time — each probe batch is answered by one
// GetBatch and the matches flow straight into the downstream stages
// without an intermediate relation. A build side that already is a hash
// table on the join key — a bare FromHandle — is not built again: the
// probe phase runs against the handle itself.

import (
	"fmt"

	"repro/decision"
	"repro/hashfn"
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
	// Family is the hash-function class (default Mult).
	Family hashfn.Family
	// LoadFactor is the build-side occupancy ceiling (default 0.5, like
	// join.Config: joins are memory-rich and probe-bound); the capacity
	// is a power of two, so the table runs in (LoadFactor/2, LoadFactor].
	LoadFactor float64
	// BuildRows overrides the build-side cardinality hint the table is
	// pre-sized from (join.CapacityFor); 0 asks the build stream, whose
	// sources usually know (slice lengths, Handle.Len, Hint). When no
	// hint exists anywhere the table starts small and grows.
	BuildRows int
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
// "first" is the pool's schedule, exactly join.SharedHashJoin's
// contract. The probe side may repeat keys freely. Each match is
// projected through cfg.Project and continues downstream; non-matching
// probe rows are skipped at emission.
//
// Unless cfg.Scheme pins one, the build table's scheme is the paper's
// Figure 8 (table.Recommend) walked for a static, read-mostly table with
// successful lookups at the load factor the sizing really leaves: 1M rows
// under the default 0.5 land in 2^21 slots — 0.477, LP — exactly 2^20 rows
// at 0.5, RH; a build side of unknown size grows, and is RH too.
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

// joinScratch is one worker's probe/build column scratch: the values a
// batch call returns and its flags (loaded during the build, ok during
// the probe — the phases never overlap).
type joinScratch struct {
	out  []uint64
	flag []bool
}

// openBuild opens the build-side table: pre-sized from the cardinality
// hint via the shared join.CapacityFor rule, single-table when the pool
// is serial, sharded (with the engine's incremental growth as a safety
// valve) when workers probe and build concurrently.
func (j *joinSource) openBuild(rt *runtime) (*table.Handle, error) {
	n := j.cfg.BuildRows
	if n <= 0 {
		n = j.build.size()
	}
	// Static, read-mostly, lookups succeed (the PK/FK contract). Without
	// a hint the table doubles as it grows, so it lives between half the
	// growth threshold and the threshold.
	w := table.Workload{LoadFactor: 0.75 * table.DefaultMaxLoadFactor}
	opts := []table.Option{table.WithSeed(j.cfg.Seed)}
	if n >= 0 {
		slots := join.CapacityFor(n, j.cfg.LoadFactor)
		w.LoadFactor = float64(max(n, 1)) / float64(slots)
		opts = append(opts, table.WithCapacity(slots))
	}
	if j.cfg.Scheme != "" {
		opts = append(opts, table.WithScheme(j.cfg.Scheme))
	} else {
		opts = append(opts, table.WithWorkload(w))
	}
	if j.cfg.Family != nil {
		opts = append(opts, table.WithHashFamily(j.cfg.Family))
	}
	if workers := rt.pool.Workers(); workers > 1 {
		// Concurrent build inserts need the sharded engine; growth stays
		// enabled so an unlucky shard resizes incrementally instead of
		// failing the build.
		opts = append(opts,
			table.WithPartitions(decision.ShardsFor(workers)),
			table.WithMaxLoadFactor(table.DefaultMaxLoadFactor))
	} else if n >= 0 {
		// Serial and pre-sized: the WORM contract, like join.HashJoin.
		opts = append(opts, table.WithMaxLoadFactor(0))
	}
	return table.Open(opts...)
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
	scratch := make([]joinScratch, rt.pool.Workers())
	for w := range scratch {
		scratch[w].out = make([]uint64, rt.pool.MorselSize())
		scratch[w].flag = make([]bool, rt.pool.MorselSize())
	}
	h := j.indexed()
	if h == nil {
		var err error
		if h, err = j.openBuild(rt); err != nil {
			return fmt.Errorf("pipe: join build table: %w", err)
		}
		// Build phase: the build stream drains into the table, one
		// single-probe GetOrPutBatch per incoming batch.
		err = j.build.src.run(rt, j.build.stages, func(w int, keys, vals []uint64) error {
			start := rt.opStart()
			sc := &scratch[w]
			_, err := h.GetOrPutBatch(keys, vals, sc.out[:len(keys)], sc.flag[:len(keys)])
			rt.opDone(opJoinBuild, w, len(keys), len(keys), start)
			if err != nil {
				return fmt.Errorf("pipe: join build: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Probe phase: each probe batch is answered by one GetBatch; the
	// matches are projected into the worker's batch and pushed through
	// the downstream stages in the same pass — no intermediate join
	// result exists anywhere.
	project := j.cfg.Project
	bufs := rt.newBatches()
	return j.probe.src.run(rt, j.probe.stages, func(w int, keys, vals []uint64) error {
		start := rt.opStart()
		sc := &scratch[w]
		ok, out := sc.flag[:len(keys)], sc.out[:len(keys)]
		h.GetBatch(keys, out, ok)
		b := &bufs[w]
		n := 0
		if project == nil {
			// The default projection (key, probeVal), without the
			// indirect call per match.
			for i, k := range keys {
				b.keys[n], b.vals[n] = k, vals[i]
				if ok[i] {
					n++
				}
			}
		} else {
			for i, k := range keys {
				if ok[i] {
					b.keys[n], b.vals[n] = project(k, out[i], vals[i])
					n++
				}
			}
		}
		return rt.emit(opJoinProbe, w, stages, sink, b, len(keys), n, start)
	})
}

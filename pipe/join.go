package pipe

// The streaming hash join: the build side is consumed into a pre-sized
// table through the single-probe PutIfAbsentBatch pipeline, then the probe
// side streams morsel-at-a-time — each probe batch is answered by one
// GetBatch and the matches flow straight into the downstream stages
// without an intermediate relation. A build side that already is a hash
// table on the join key — a bare FromHandle — is not built again: the
// probe phase runs against the handle itself.

import (
	"errors"
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
	// LoadFactor is the build-side occupancy ceiling (default 0.5: joins
	// are memory-rich and probe-bound); the capacity is a power of two,
	// so the table runs in (LoadFactor/2, LoadFactor].
	LoadFactor float64
	// BuildRows overrides the build-side cardinality hint the table is
	// pre-sized from (join.CapacityFor); 0 asks the build stream, whose
	// sources usually know (slice lengths, Handle.Len, Hint). When no
	// hint exists anywhere the table starts small and grows; a hint the
	// build overruns is ErrFull at one worker, a second build above.
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
// "first" is the pool's schedule. The probe side may repeat keys
// freely. Each match is projected through cfg.Project and continues
// downstream; non-matching probe rows are skipped at emission.
//
// Unless cfg.Scheme pins one, the build table's scheme is the paper's
// Figure 8 (table.Recommend) walked for a static, read-mostly table with
// successful lookups at the load factor the sizing really leaves: 1M rows
// under the default 0.5 land in 2^21 slots — 0.477, LP — exactly 2^20 rows
// at 0.5, RH; a build side of unknown size grows, and is RH too.
//
// A pre-sized build whose scheme holds its entries still (LP, LPSoA, QP, DH:
// table.Scheme.SharedBuild) is ONE fixed table at every worker count: all
// workers insert through Handle.PutIfAbsentBatch, a compare-and-swap per key,
// and after the build phase's barrier probe it with plain GetBatch — no lock,
// scatter or gather on either phase. Schemes that displace or allocate (RH,
// Cuckoo, chained) and build sides of unknown size take the sharded, growing
// engine above one worker.
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

// joinScratch is one worker's probe column scratch: the values a probe
// batch's GetBatch returns and their ok flags.
type joinScratch struct {
	out  []uint64
	flag []bool
}

// openBuild opens the build-side table, pre-sized from the cardinality hint
// via join.CapacityFor, with the scheme Figure 8 picks for it unless the
// config pins one: one fixed table — the WORM contract — when every worker
// can insert into it (there is one worker, or the scheme is a SharedBuild
// one); else, and for grow, the rebuild after a hint proved too small, the
// sharded engine with growth on.
func (j *joinSource) openBuild(rt *runtime, grow bool) (*table.Handle, error) {
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
	scheme := j.cfg.Scheme
	if scheme != "" {
		opts = append(opts, table.WithScheme(scheme))
	} else {
		opts = append(opts, table.WithWorkload(w))
		scheme, _, _ = table.Recommend(w) // Open walks it again, and reports the error
	}
	if j.cfg.Family != nil {
		opts = append(opts, table.WithHashFamily(j.cfg.Family))
	}
	if workers := rt.pool.Workers(); n >= 0 && !grow && (workers == 1 || scheme.SharedBuild()) {
		opts = append(opts, table.WithMaxLoadFactor(0))
	} else if workers > 1 {
		opts = append(opts,
			table.WithPartitions(decision.ShardsFor(workers)),
			table.WithMaxLoadFactor(table.DefaultMaxLoadFactor))
	}
	return table.Open(opts...)
}

// buildTable opens the build table and drains the build stream into it, one
// PutIfAbsentBatch per batch. The call returns no values — the join never
// read them, and that is what lets workers share a fixed table; the pool's
// barrier ending the phase orders the inserts before the probe's plain reads.
func (j *joinSource) buildTable(rt *runtime, grow bool) (*table.Handle, error) {
	h, err := j.openBuild(rt, grow)
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
	scratch := make([]joinScratch, rt.pool.Workers())
	for w := range scratch {
		scratch[w].out = make([]uint64, rt.pool.MorselSize())
		scratch[w].flag = make([]bool, rt.pool.MorselSize())
	}
	h := j.indexed()
	if h == nil {
		// Build phase. Cardinality hints are guesses: when the workers'
		// shared fixed table proves too small the build stream, re-runnable
		// like every stream, runs again into the sharded table that grows.
		// A serial build keeps the WORM contract and reports ErrFull.
		var err error
		h, err = j.buildTable(rt, false)
		if errors.Is(err, table.ErrFull) && rt.pool.Workers() > 1 && h.Partitions() == 1 {
			h, err = j.buildTable(rt, true)
		}
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

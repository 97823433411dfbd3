package pipe

import (
	"context"

	"repro/exec"
	"repro/internal/freelist"
)

// Config sizes one pipeline run. The zero value means "one worker per
// CPU, default morsels, no cancellation, no instrumentation".
type Config struct {
	// Workers bounds the pool executing the pipeline (default
	// runtime.GOMAXPROCS via exec). With Workers == 1 every operator runs
	// serially in input order — the deterministic oracle of the parallel
	// schedule.
	Workers int
	// MorselSize is the batch granularity rows stream in (default
	// exec.DefaultMorselSize). Every batch an operator emits holds at
	// most MorselSize rows.
	MorselSize int
	// Ctx, when non-nil, cancels the run between morsels: the pool's
	// claim cursor stops like on a first error and ctx.Err() is returned
	// from the terminal.
	Ctx context.Context
	// Metrics, when non-nil, receives per-operator telemetry (rows
	// in/out, morsels, per-morsel latency). Nil keeps the hot path free
	// of clock reads and atomics.
	Metrics *Metrics
}

// stage is one fused column kernel: it transforms a batch of (key, value)
// rows in place, compacts the survivors to the front and returns how many
// there are. Filter and Map both compile to stages; adjacent stages run
// back to back over one batch while it is in cache, so the chain costs one
// indirect call per stage per batch and the user's pred/fn is the only
// call left per row.
type stage func(keys, vals []uint64) int

// batchSink consumes one batch of column data. Batches from different
// workers may arrive concurrently; batch w is always delivered on worker
// w's goroutine, so per-worker state needs no locks. The slices are
// owned by the producer and invalid after return. A sink may rewrite the
// batch it is handed in place (the join projects its matches into it),
// and the producer does not read it after the call.
type batchSink func(worker int, keys, vals []uint64) error

// source produces the rows of a Stream. run drives the source to
// completion on rt's pool, applying the fused stage chain to every batch
// it fills (runtime.emit) and pushing the survivors into sink.
type source interface {
	// rows returns an upper bound on the rows the source emits — the
	// cardinality hint downstream builds pre-size from.
	rows() int
	run(rt *runtime, stages []stage, sink batchSink) error
}

// Stream is a lazy operator chain: a source plus the fused filter/map
// stages applied to its rows. Streams are immutable — Filter and Map
// return extended copies — and cheap; nothing executes until a terminal
// (Collect, Count, Sink, Drain, GroupBy) runs the stream. A Stream may
// be run multiple times (each terminal is an independent execution).
type Stream struct {
	src    source
	stages []stage
	hint   int // caller-supplied cardinality upper bound; 0 = ask the source
}

// Filter appends a predicate: rows failing pred are dropped. The
// predicate is fused into the producing operator — pushdown: the operator
// copies a morsel's rows into its worker batch once, and the predicate
// compacts that batch column-wise, in place, before anything downstream
// sees it (store the row at the write cursor, advance the cursor only
// when pred holds). pred must be safe for concurrent calls from different
// workers.
func (s *Stream) Filter(pred func(k, v uint64) bool) *Stream {
	return s.with(func(keys, vals []uint64) int {
		vals = vals[:len(keys)]
		n := 0
		for i, k := range keys {
			v := vals[i]
			keys[n], vals[n] = k, v
			if pred(k, v) {
				n++
			}
		}
		return n
	})
}

// Map appends a per-row transform, fused like Filter: it overwrites the
// batch in place. fn must be safe for concurrent calls from different
// workers.
func (s *Stream) Map(fn func(k, v uint64) (uint64, uint64)) *Stream {
	return s.with(func(keys, vals []uint64) int {
		vals = vals[:len(keys)]
		for i, k := range keys {
			keys[i], vals[i] = fn(k, vals[i])
		}
		return len(keys)
	})
}

// Hint declares an upper bound on the rows this stream emits — the
// cardinality hint a downstream HashJoin pre-sizes its build table from
// when the source itself cannot know (e.g. a heavily filtered scan whose
// caller knows the tape's distinct-key count from dist).
func (s *Stream) Hint(rows int) *Stream {
	ns := s.clone()
	ns.hint = rows
	return ns
}

// with returns a copy of s with one more fused stage.
func (s *Stream) with(st stage) *Stream {
	ns := s.clone()
	ns.stages = append(ns.stages, st)
	return ns
}

func (s *Stream) clone() *Stream {
	ns := &Stream{src: s.src, hint: s.hint}
	ns.stages = append([]stage(nil), s.stages...)
	return ns
}

// size returns the stream's cardinality upper bound: its Hint, else its
// source's.
func (s *Stream) size() int {
	if s.hint > 0 {
		return s.hint
	}
	return s.src.rows()
}

// applyStages runs the fused stage chain over one batch in place and
// returns the number of survivors, compacted to the front of both
// columns.
func applyStages(stages []stage, keys, vals []uint64) int {
	n := len(keys)
	for _, st := range stages {
		n = st(keys[:n], vals[:n])
	}
	return n
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

// runtime is one terminal's execution state: the pool every operator
// phase schedules on, the run's context for serial segments, and the
// optional metrics sink.
type runtime struct {
	pool *exec.Pool
	ctx  context.Context
	met  *Metrics
}

// newRuntime builds the shared pool for one terminal execution. The pool
// holds no goroutines between its phases, so nothing needs closing.
func newRuntime(cfg Config) *runtime {
	pool := exec.NewPool(exec.Config{
		Workers:    cfg.Workers,
		MorselSize: cfg.MorselSize,
		Ctx:        cfg.Ctx,
	})
	return &runtime{pool: pool, ctx: cfg.Ctx, met: cfg.Metrics}
}

// ctxErr reports the run's cancellation, for serial emission loops that
// are not paced by the pool's claim cursor.
func (rt *runtime) ctxErr() error {
	if rt.ctx != nil {
		return rt.ctx.Err()
	}
	return nil
}

// batch is one worker's reusable output column pair, and an ok column
// beside it for a join probe's GetBatch answers.
type batch struct {
	keys, vals []uint64
	ok         []bool
}

// batches holds the batches of finished operator runs, so that every
// operator of a plan run, and every later run, reuses their columns
// instead of allocating morsel-sized scratch per operator and worker.
var batches freelist.List[*batch]

// maxPooledRows is the largest batch (in rows), and the largest group-by
// local (in groups, reached or expected), that goes back to its list:
// sixteen default morsels. A larger one is dropped for the collector, so
// one run with giant morsels or a huge group count cannot pin its columns.
const maxPooledRows = 1 << 16

// takeBatches lends n morsel-sized batches, one per pool worker that
// fills one, until putBatches — called once the pool run that writes them
// has returned, i.e. every worker is done with its batch. A listed batch
// too small for this pool's morsels stays listed, and a new one is made.
func (rt *runtime) takeBatches(n int) []*batch {
	m := rt.pool.MorselSize()
	fits := func(b *batch) bool { return cap(b.keys) >= m }
	bufs := make([]*batch, n)
	for i := range bufs {
		if b, ok := batches.Take(fits); ok {
			b.keys, b.vals, b.ok = b.keys[:m], b.vals[:m], b.ok[:m]
			bufs[i] = b
		} else {
			bufs[i] = &batch{keys: make([]uint64, m), vals: make([]uint64, m), ok: make([]bool, m)}
		}
	}
	return bufs
}

// putBatches returns bufs to the list; the caller must not touch them
// again.
func putBatches(bufs []*batch) {
	batches.Give(func(b *batch) bool { return cap(b.keys) <= maxPooledRows }, bufs...)
}

// emit finishes the batch an operator filled with n rows out of in rows
// of input: the fused stages compact it in place, the operator's morsel
// is recorded, and the survivors go to sink. It is the one place stages
// run, whatever the source.
func (rt *runtime) emit(o op, w int, stages []stage, sink batchSink, b *batch, in, n int, start int64) error {
	n = applyStages(stages, b.keys[:n], b.vals[:n])
	rt.opDone(o, w, in, n, start)
	if n == 0 {
		return nil
	}
	return sink(w, b.keys[:n], b.vals[:n])
}

// ---------------------------------------------------------------------------
// Terminals
// ---------------------------------------------------------------------------

// Sink runs the stream, delivering every surviving batch to fn with the
// batchSink contract (concurrent calls from different workers; fn may
// rewrite a batch in place; slices invalid after return). It is the
// low-level terminal the others build on.
func (s *Stream) Sink(cfg Config, fn func(worker int, keys, vals []uint64) error) error {
	rt := newRuntime(cfg)
	return s.src.run(rt, s.stages, fn)
}

// Drain runs the stream and discards the rows — the terminal for
// pipelines executed for their side effects or their metrics.
func (s *Stream) Drain(cfg Config) error {
	return s.Sink(cfg, func(int, []uint64, []uint64) error { return nil })
}

// Count runs the stream and returns the number of surviving rows.
func (s *Stream) Count(cfg Config) (int, error) {
	rt := newRuntime(cfg)
	counts := make([]int, rt.pool.Workers())
	err := s.src.run(rt, s.stages, func(w int, keys, _ []uint64) error {
		counts[w] += len(keys)
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// Collect runs the stream and materializes the surviving rows as column
// slices. With Workers == 1 rows appear in input order; with more
// workers the order across morsels is the pool's schedule and therefore
// unspecified (rows within one morsel stay contiguous and ordered).
func (s *Stream) Collect(cfg Config) (keys, vals []uint64, err error) {
	rt := newRuntime(cfg)
	type cols struct{ keys, vals []uint64 }
	parts := make([]cols, rt.pool.Workers())
	err = s.src.run(rt, s.stages, func(w int, k, v []uint64) error {
		parts[w].keys = append(parts[w].keys, k...)
		parts[w].vals = append(parts[w].vals, v...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range parts {
		keys = append(keys, p.keys...)
		vals = append(vals, p.vals...)
	}
	return keys, vals, nil
}

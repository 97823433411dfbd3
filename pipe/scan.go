package pipe

// The scan operators: every pipeline starts at one. A scan copies each
// morsel into its worker's batch with a plain loop and hands the batch to
// runtime.emit, where the fused stage chain compacts it in place — the
// pushdown: a row failing a predicate never leaves the scan's batch.

import (
	"fmt"

	"repro/join"
	"repro/table"
)

// FromColumns scans parallel key/value columns. vals may be nil, in
// which case every row's value is 0 (key-only streams). The slices are
// read, not copied: they must stay unmodified for the duration of each
// terminal run.
func FromColumns(keys, vals []uint64) *Stream {
	if vals != nil && len(vals) != len(keys) {
		panic(fmt.Sprintf("pipe: FromColumns length mismatch: %d keys, %d vals", len(keys), len(vals)))
	}
	return &Stream{src: &columnsSource{keys: keys, vals: vals}}
}

// FromRelation scans an in-memory join.Relation as (Key, Payload) rows.
func FromRelation(rel join.Relation) *Stream {
	return &Stream{src: &relationSource{rel: rel}}
}

// FromHandle scans a live table.Handle. A sharded handle (more than one
// partition) is walked shard-parallel — one pool task per shard via
// shard.Engine.RangeShard, weakly consistent and correct mid-resize
// (the migration-aware walk, the successor then its unshadowed live frozen
// entries, yields each key at most once). A single-partition handle is
// walked serially as one task.
// The stage chain and downstream operators run while a shard lock is
// held, so the pipeline must not write back into the same handle. As the
// build side of a HashJoin, with no stage on it, the handle is not walked
// at all: the join probes it in place, holding no lock.
func FromHandle(h *table.Handle) *Stream {
	return &Stream{src: &handleSource{h: h}}
}

// ---------------------------------------------------------------------------
// Columns / relation scans: morsel-parallel over an index range.
// ---------------------------------------------------------------------------

type columnsSource struct {
	keys, vals []uint64
}

func (s *columnsSource) rows() int { return len(s.keys) }

func (s *columnsSource) run(rt *runtime, stages []stage, sink batchSink) error {
	bufs := rt.takeBatches(rt.pool.Workers())
	defer putBatches(bufs)
	return rt.pool.ForMorsels(len(s.keys), func(w, lo, hi int) error {
		start := rt.opStart()
		b := bufs[w]
		n := copy(b.keys, s.keys[lo:hi])
		if s.vals != nil {
			copy(b.vals, s.vals[lo:hi])
		} else {
			clear(b.vals[:n])
		}
		return rt.emit(opScan, w, stages, sink, b, n, n, start)
	})
}

type relationSource struct {
	rel join.Relation
}

func (s *relationSource) rows() int { return len(s.rel) }

func (s *relationSource) run(rt *runtime, stages []stage, sink batchSink) error {
	bufs := rt.takeBatches(rt.pool.Workers())
	defer putBatches(bufs)
	return rt.pool.ForMorsels(len(s.rel), func(w, lo, hi int) error {
		start := rt.opStart()
		b := bufs[w]
		rows := s.rel[lo:hi]
		keys, vals := b.keys[:len(rows)], b.vals[:len(rows)]
		for i, r := range rows {
			keys[i], vals[i] = r.Key, r.Payload
		}
		return rt.emit(opScan, w, stages, sink, b, len(rows), len(rows), start)
	})
}

// ---------------------------------------------------------------------------
// Handle scan: shard-parallel over a sharded engine, serial otherwise.
// ---------------------------------------------------------------------------

type handleSource struct {
	h *table.Handle
}

func (s *handleSource) rows() int { return s.h.Len() }

func (s *handleSource) run(rt *runtime, stages []stage, sink batchSink) error {
	eng := s.h.Engine()
	if eng == nil {
		// Single-partition handle: a serial walk.
		return rt.drainSerial(stages, sink, s.h.Range)
	}
	bufs := rt.takeBatches(rt.pool.Workers())
	defer putBatches(bufs)
	return rt.pool.ForEach(eng.Shards(), func(w, shard int) error {
		return rt.drain(stages, sink, w, bufs[w], func(fn func(k, v uint64) bool) {
			eng.RangeShard(shard, fn)
		})
	})
}

// drainSerial is drain as one pool task on a batch of its own: a serial
// walk wrapped so that a panicking stage is contained and cancellation is
// checked like everywhere else.
func (rt *runtime) drainSerial(stages []stage, sink batchSink, rangeFn func(func(k, v uint64) bool)) error {
	return rt.pool.ForEach(1, func(w, _ int) error {
		b := rt.takeBatches(1)
		defer putBatches(b)
		return rt.drain(stages, sink, w, b[0], rangeFn)
	})
}

// drain streams one serial range callback (a table walk, an
// aggregation's groups) into morsel-sized batches, emitting each through
// the fused stages as it fills and once at the end. Cancellation is
// checked at every emit — the same granularity the pool's claim cursor
// gives morsel-parallel scans.
func (rt *runtime) drain(stages []stage, sink batchSink, w int, b *batch, rangeFn func(func(k, v uint64) bool)) error {
	start := rt.opStart()
	n := 0
	var err error
	flush := func() bool {
		err = rt.emit(opScan, w, stages, sink, b, n, n, start)
		if err == nil {
			err = rt.ctxErr()
		}
		n = 0
		start = rt.opStart()
		return err == nil
	}
	rangeFn(func(k, v uint64) bool {
		b.keys[n], b.vals[n] = k, v
		n++
		return n < len(b.keys) || flush()
	})
	if err == nil && n > 0 {
		flush()
	}
	return err
}

//go:build !race

package shard

// The optimistic read path: wait-free in the common case. A reader
// snapshots the shard's sequence word, loads the published view, probes
// it with plain loads, and validates that the sequence is unchanged
// (and was even — no writer mid-window). On a torn window it yields and
// retries up to readMaxRetries times (a staged range: readRangeDiscards,
// see readRange), then falls back to the writer lock so progress is never
// lost.
//
// The probes race writer stores by design; sequence validation discards
// every observation the race could have corrupted before it escapes.
// That protocol sits outside the Go memory model's guarantees (like
// every seqlock), which is why these builds carry the !race tag: under
// the race detector all reads route through the locked slow path
// (read_racedetector.go) and the remaining machinery stays fully
// checkable. The non-race differential suites pin the protocol itself:
// stored values are checkable functions of their keys, so a torn read
// that escaped validation cannot go unnoticed.

import "runtime"

// readGet is the wait-free single-key read behind Get.
func (e *Engine) readGet(s *shardState, key uint64) (uint64, bool) {
	for attempt := 0; attempt <= readMaxRetries; attempt++ {
		s1 := s.seq.Load()
		if s1&1 == 0 {
			v := s.view.Load()
			val, ok := v.get(key)
			if s.seq.Load() == s1 {
				if attempt > 0 {
					e.readAccount(s, uint64(attempt), false)
				}
				return val, ok
			}
		}
		// A writer owns (or crossed) the window; give it the core
		// before re-reading the sequence.
		runtime.Gosched()
	}
	e.readAccount(s, readMaxRetries+1, true)
	var val uint64
	var ok bool
	readLocked(s, func(v *view) { val, ok = v.get(key) })
	return val, ok
}

// readRange is the wait-free staged-range read behind GetBatch: one
// sequence validation covers the whole shard range, so the two atomic
// loads amortize over the batch. A torn probe is discarded and the range
// looked up again (the output lanes are caller-owned scratch until the
// batch returns); an open window is not probed into but watched until it
// closes. readRangeDiscards torn probes, or windowWatchNanos of watching in
// all, and the range is read under the lock.
//
// Inside the window the range goes to view.getRange — the tables' own
// GetBatch pipeline, one call on a steady-state shard, frozen table then
// successor on a migrating one — which writes nothing a table or the
// shard owns and cannot be made to spin by a torn state, so it needs
// nothing from the protocol beyond the validation a scalar Get gets.
func (e *Engine) readRange(s *shardState, keys, vals []uint64, ok []bool) int {
	torn, watchUntil := uint64(0), int64(-1)
	for torn < readRangeDiscards {
		s1 := s.seq.Load()
		if s1&1 != 0 {
			if watchUntil < 0 {
				watchUntil = watchEnd(windowWatchNanos)
			}
			if !s.awaitEven(watchUntil) {
				break
			}
			continue
		}
		hits := s.view.Load().getRange(keys, vals, ok)
		if s.seq.Load() == s1 {
			if torn > 0 {
				e.readAccount(s, torn, false)
			}
			return hits
		}
		torn++
	}
	e.readAccount(s, torn, true)
	var hits int
	readLocked(s, func(v *view) { hits = v.getRange(keys, vals, ok) })
	return hits
}

// readSnapshot runs fn against a validated-quiescent view of s: the
// observer-read protocol behind Stats, Capacity and MemoryFootprint.
// fn may run several times (each retry re-invokes it) and must only
// write caller-local state; only the invocation that validated counts.
func (e *Engine) readSnapshot(s *shardState, fn func(v *view)) {
	for attempt := 0; attempt <= readMaxRetries; attempt++ {
		s1 := s.seq.Load()
		if s1&1 == 0 {
			fn(s.view.Load())
			if s.seq.Load() == s1 {
				if attempt > 0 {
					e.readAccount(s, uint64(attempt), false)
				}
				return
			}
		}
		runtime.Gosched()
	}
	e.readAccount(s, readMaxRetries+1, true)
	readLocked(s, fn)
}

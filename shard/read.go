package shard

// The wait-free read protocol, shared scaffolding. The optimistic
// (seqlock) implementations of readGet, readRange and readSnapshot live
// in read_optimistic.go; race-detector builds substitute the locked
// slow paths below for every read (read_racedetector.go) because a
// seqlock reader's probes are deliberate data races — loads of table
// slots a writer may be storing to, made safe only retroactively by
// sequence validation — and the detector would (correctly, by its
// rules) report every one of them. The slow path IS the optimistic
// path's fallback, so race builds exercise real code, not a stub.

// readMaxRetries bounds the optimistic attempts a single-key or observer
// read makes before falling back to the writer lock: enough to ride out a
// few short writer windows, small enough that a reader stuck behind a long
// batch mutation queues on the lock instead of spinning. Progress is
// therefore never lost — the fallback serializes behind the writer and
// always completes.
const readMaxRetries = 8

// A staged range pays for a torn probe with every key it looked up, so its
// budget is readRangeDiscards probes, not readMaxRetries (readRange).
const readRangeDiscards = 2

// How long a waiter watches the sequence word before it sleeps on the
// mutex, two ways:
//
//   - parkRoundTripNanos bounds a writer's watch of a held shard (acquire,
//     which the locked read fallbacks use too). It is about what parking
//     on the mutex and being woken costs (3–6 µs from Unlock to running
//     again, p50 to p90, on a 2-vCPU KVM guest): the competitive
//     spin-then-block rule (Karlin et al., SOSP '91) — watch no longer than
//     a park would cost, and no wait costs more than twice the best
//     choice. A longer watch buys the waiter nothing and taxes the holder:
//     where the two share a core, as hyperthreads do, the watching loop
//     takes about half the holder's speed.
//   - windowWatchNanos, about one batch hold, bounds a batched read's watch
//     of an open window (readRange). A reader that gives up reads its range
//     under the lock, holding writers off for the whole of it, so it waits
//     the window out instead: with readers on the short bound too,
//     rw_resize's p90 rose 40–130%.
const (
	parkRoundTripNanos = 5_000
	windowWatchNanos   = 40_000
)

// readGetSlow is the locked single-key read: the optimistic path's
// fallback and the race-build read path. It takes the writer lock (no
// seqlock window — it mutates nothing, and other optimistic readers
// must keep validating successfully while it holds the lock) and probes
// the current view.
func (e *Engine) readGetSlow(s *shardState, key uint64) (uint64, bool) {
	s.acquire()
	v := s.view.Load()
	val, ok := v.get(key)
	s.mu.Unlock()
	return val, ok
}

// readRangeSlow is the locked staged-range read behind GetBatch.
func (e *Engine) readRangeSlow(s *shardState, keys, vals []uint64, ok []bool) int {
	s.acquire()
	hits := s.view.Load().getRange(keys, vals, ok)
	s.mu.Unlock()
	return hits
}

// readSnapshotSlow runs fn against the shard's view under the writer
// lock: the fallback for observer reads (Stats, Capacity,
// MemoryFootprint) whose table accessors may touch writer-mutated
// words.
func (e *Engine) readSnapshotSlow(s *shardState, fn func(v *view)) {
	s.acquire()
	fn(s.view.Load())
	s.mu.Unlock()
}

// readAccount records a read that discarded probes (and possibly fell
// back): engine totals for Stats, striped counters for the registry. Off
// the hot path by construction — validated first-attempt reads never call
// it.
func (e *Engine) readAccount(s *shardState, retries uint64, fellBack bool) {
	e.readRetries.Add(retries)
	m := e.metrics.Load()
	if m != nil {
		m.ReadRetry.Add(s.idx, retries)
	}
	if fellBack {
		e.readFallbacks.Add(1)
		if m != nil {
			m.ReadFallback.Inc(s.idx)
		}
	}
}

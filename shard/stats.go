package shard

import "iter"

// Stats is an engine-level snapshot: merged size accounting plus the
// incremental-resize and wait-free-read counters. Each
// shard's contribution is a validated per-shard observation (the
// readSnapshot protocol — see view.go); there is no cross-shard
// point-in-time consistency. Per-scheme probe diagnostics stay with the
// tables; visit them with ForEachTable.
type Stats struct {
	Shards int `json:"shards"`
	// Migrating counts shards with a resize currently in flight.
	Migrating int `json:"migrating,omitempty"`

	Len         int     `json:"len"`
	Capacity    int     `json:"capacity"`
	LoadFactor  float64 `json:"load_factor"`
	MemoryBytes uint64  `json:"memory_bytes"`

	// MigrationsStarted / MigrationsDone count incremental resizes; their
	// difference is the number currently in flight (== Migrating when no
	// writer races the snapshot).
	MigrationsStarted uint64 `json:"migrations_started"`
	MigrationsDone    uint64 `json:"migrations_done"`
	// MigratedEntries counts entries moved by the bounded per-mutation
	// migration steps (eagerly migrated keys are not counted).
	MigratedEntries uint64 `json:"migrated_entries"`
	// MigrationChunks counts the bounded migration steps mutations (and
	// Drain) hosted while a resize was in flight; MigrationNanos is
	// their cumulative wall time — together the incremental-resize cost
	// ledger (MigrationNanos/MigrationChunks is the mean step).
	MigrationChunks uint64 `json:"migration_chunks,omitempty"`
	MigrationNanos  uint64 `json:"migration_nanos,omitempty"`
	// Rebuilds counts stop-the-world fallback rebuilds (see Engine docs;
	// zero in any healthy configuration).
	Rebuilds uint64 `json:"rebuilds,omitempty"`

	// ReadRetries counts optimistic probes discarded because a writer's
	// seqlock window overlapped them (a Get's lookup, a GetBatch's whole
	// shard range); ReadFallbacks counts reads that exhausted their budget
	// and finished under the writer lock; LockParks counts lock
	// acquisitions (writers' and fallbacks') that outlasted the yield bound
	// (10 ms) and slept on the mutex. All zero under read-only load — the
	// wait-free read path's health ledger.
	ReadRetries   uint64 `json:"read_retries,omitempty"`
	ReadFallbacks uint64 `json:"read_fallbacks,omitempty"`
	LockParks     uint64 `json:"lock_parks,omitempty"`
	// ViewPublishes counts shard view publications (epoch transitions):
	// the Shards birth epochs plus one per resize begin/finish, dead
	// overlay doubling, and rebuild. Reads and in-place mutations never
	// republish.
	ViewPublishes uint64 `json:"view_publishes,omitempty"`
}

// Stats collects the engine snapshot without blocking writers: engine
// counters are atomic loads, per-shard state is read through the same
// validated wait-free protocol as Get (one shard at a time; no
// cross-shard snapshot — see the package documentation).
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:            len(e.shards),
		MigrationsStarted: e.migStarted.Load(),
		MigrationsDone:    e.migDone.Load(),
		MigratedEntries:   e.migMoved.Load(),
		MigrationChunks:   e.migChunks.Load(),
		MigrationNanos:    e.migNanos.Load(),
		Rebuilds:          e.rebuilds.Load(),
		ReadRetries:       e.readRetries.Value(),
		ReadFallbacks:     e.readFallbacks.Value(),
		LockParks:         e.lockParks.Value(),
		ViewPublishes:     e.viewPublishes.Value(),
	}
	for i := range e.shards {
		s := &e.shards[i]
		st.Len += int(s.live.Load())
		// Shard-local snapshot scratch: readSnapshot may invoke the
		// closure several times (each torn window re-probes), so it only
		// assigns — the accumulation into st happens once, after the
		// validated invocation wins.
		var (
			migrating bool
			capacity  int
			memory    uint64
		)
		e.readSnapshot(s, func(v *view) {
			migrating = v.migrating()
			memory = v.cur.MemoryFootprint()
			if v.next != nil {
				capacity = v.next.Capacity()
				memory += v.next.MemoryFootprint()
			} else {
				capacity = v.cur.Capacity()
			}
		})
		if migrating {
			st.Migrating++
		}
		st.Capacity += capacity
		st.MemoryBytes += memory
	}
	if st.Capacity > 0 {
		st.LoadFactor = float64(st.Len) / float64(st.Capacity)
	}
	return st
}

// ForEachTable visits every shard's table(s) inside that shard's write
// window: the active table, and during a migration the frozen table too
// (whose entries may be dead: deleted or overwritten since). fn must not
// mutate the table or call back into the engine. Intended for
// observability aggregation, e.g. table.StatsOf merges.
//
// The writer lock — not the wait-free protocol — because fn is a caller
// callback that cannot be re-invoked on a torn window; and a window, whose
// opening applies the shard's pending deletes, so fn sees no key the
// engine no longer holds.
func (e *Engine) ForEachTable(fn func(shard int, t Table)) {
	for i := range e.shards {
		s := &e.shards[i]
		s.lockShard()
		v := s.view.Load()
		if v.next != nil {
			fn(i, v.next)
		}
		fn(i, v.cur)
		s.unlockShard()
	}
}

// Range calls fn for every entry until fn returns false.
//
// Iteration is WEAKLY CONSISTENT: one shard is locked at a time, so
// concurrent writers proceed on other shards mid-iteration (readers
// proceed everywhere — iteration holds the writer lock without opening a
// seqlock window, since it mutates nothing, and so skips the keys pending
// deletion rather than applying them). Within one shard the view
// is consistent and each key is yielded at most once (during a migration
// the successor is walked first and frozen-table entries shadowed by it,
// or marked dead, are skipped); across shards there is no snapshot — an
// entry written concurrently may or may not be observed, and Len may
// disagree with the visit count. fn must not call back into the engine
// (the shard lock is held; a same-shard write would deadlock).
func (e *Engine) Range(fn func(key, val uint64) bool) {
	for i := range e.shards {
		if !e.RangeShard(i, fn) {
			return
		}
	}
}

// RangeShard calls fn for every entry of one shard (in [0, Shards()))
// until fn returns false, reporting whether the walk ran to completion.
// It is Range restricted to a single shard — same weak-consistency and
// no-reentrancy contract, including the mid-migration walk (successor
// first, then the frozen table from the migration cursor on, dead
// (deleted or overwritten) or shadowed keys skipped) — and
// exists so parallel scans (pipe's sharded Scan) can walk different
// shards from different workers concurrently: each call locks only its
// own shard.
func (e *Engine) RangeShard(shard int, fn func(key, val uint64) bool) bool {
	s := &e.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	stopped := false
	visit := func(k, val uint64) bool {
		if s.pend.has(k) {
			return true
		}
		stopped = stopped || !fn(k, val)
		return !stopped
	}
	if v.next == nil {
		v.cur.RangeFrom(0, visit)
		return !stopped
	}
	v.next.RangeFrom(0, visit)
	// Every frozen entry the migration cursor is past is in the successor
	// (walked above), dead, or parked on the carry list: what is left of
	// the frozen table is the carry list and the walk from the cursor on.
	unmoved := func(k, val uint64) bool {
		if stopped || v.dead.has(k) {
			return !stopped
		}
		if _, shadowed := v.next.Get(k); shadowed {
			return true
		}
		return visit(k, val)
	}
	for _, c := range s.carry {
		unmoved(c.k, c.v)
	}
	if !stopped {
		v.cur.RangeFrom(s.pos, unmoved)
	}
	return !stopped
}

// All returns a Go 1.23 range-over-func iterator over the entries, with
// Range's weak-consistency contract.
func (e *Engine) All() iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) { e.Range(yield) }
}

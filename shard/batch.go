package shard

// Cross-shard batched operations: the key column is scattered per shard in
// one stable pass (so duplicate keys — which always share a shard — keep
// their slice order and therefore sequential semantics), each shard's
// staged range is executed per shard exactly once — one seqlock validation
// for reads, one writer-lock acquisition for writes — and results gather
// back to the callers' lanes in input order.
//
// Engines are meant for concurrent callers, so a call never shares scratch
// with another: each takes a staging (the scatter's columns, the relay to
// RMWBatch's fn) from a sync.Pool for its own duration and returns it
// after the gather. The pool keeps one stack a P: a shared free list's one
// mutex (internal/freelist), taken twice a call, would queue the wait-free
// readers. The scatter grows its columns in place, so once the pool is warm
// a batch call allocates nothing.
//
// A non-migrating shard's range runs its table's batched pipeline
// (bulk-hashed, home lines touched together, then the walk), reads and
// writes alike: the tables' GetBatch takes its chunk scratch per call and
// writes no table state, so it runs inside the readers' wait-free window
// (see readRange), while the mutation pipelines use table-owned scratch
// under the shard's writer lock. A migrating shard's reads stay batched —
// the frozen table's GetBatch over the range, then the successor's over
// its misses and dead lanes (view.getRange). Its writes go key by key
// through rmwLocked, the scalar writers' one locked path, which also
// advances the migration — batches make resize progress proportional to
// their size — and so does a steady range whose pipeline was refused.
// A range with fn always goes key by key, steady or not: no workload
// batches its upserts through an engine, and a refused pipeline could not
// be re-applied without calling fn twice for a lane.

import (
	"sync"

	"repro/obs"
)

// staging is one batch call's scratch. It is owned by exactly one call
// between takeStaging and release, whatever goroutines share the
// engine (or other engines: the pool is the package's, so the short-lived
// build engines of consecutive queries reuse each other's columns).
type staging struct {
	scatter

	// The relay to RMWBatch's fn, bound to this staging once, when it is
	// made, so no closure is allocated per call. It is handed to rmwLocked and
	// forwards to the caller's fn for the staged lane in lane, under the
	// caller's lane numbering.
	relay func(old uint64, exists bool) uint64
	fn    func(lane int, old uint64, exists bool) uint64
	orig  []int32 // staged lane → caller lane, for the range being applied
	lane  int
}

// maxPooledLanes is the largest scatter (in staged lanes, 25 bytes each)
// that goes back to the pool: sixteen default morsels, plus growSlice's
// quarter of headroom. A larger one is dropped for the collector, so one
// giant batch cannot pin its columns.
const maxPooledLanes = 1<<16 + 1<<14

var stagingPool = sync.Pool{New: func() any {
	st := new(staging)
	st.relay = st.relayLane
	return st
}}

// takeStaging hands the caller a staging of its own until release.
func takeStaging() *staging { return stagingPool.Get().(*staging) }

// release returns st to the pool, forgetting the caller's callback.
func (st *staging) release() {
	st.fn = nil
	if cap(st.Keys) <= maxPooledLanes {
		stagingPool.Put(st)
	}
}

// relayLane is the relay: it maps the lane of the range the table sees to
// the caller's and calls fn for it.
func (st *staging) relayLane(old uint64, exists bool) uint64 {
	return st.fn(int(st.orig[st.lane]), old, exists)
}

// GetBatch looks up keys[i] into vals[i], ok[i] for every i and returns
// the number of hits. vals and ok must be at least as long as keys.
//
// Batched lookups take no locks at all: each shard's staged range runs
// on the wait-free read path, with ONE sequence validation covering the
// whole range (see readRange), so any number of GetBatch (and Get)
// callers proceed in parallel with each other — and with writers. Inside
// that window a steady-state shard's range is one call of its table's
// own GetBatch pipeline (read-only and re-entrant), a migrating shard's
// the frozen table's minus the dead overlay, then the successor's for the
// rest, a table at a time through the same pipeline; the shard-major
// scatter amortizes routing and validation to once per shard per batch.
func (e *Engine) GetBatch(keys, vals []uint64, ok []bool) int {
	if len(vals) < len(keys) || len(ok) < len(keys) {
		panic("shard: GetBatch output slices shorter than keys")
	}
	m, start := e.batchStart()
	hits := e.getBatch(keys, vals, ok)
	if m != nil {
		m.GetBatch.Record(e.batchHint(keys), obs.Now()-start)
	}
	return hits
}

func (e *Engine) getBatch(keys, vals []uint64, ok []bool) int {
	st := takeStaging()
	defer st.release()
	st.route(e.router, e.shift, len(e.shards), keys, nil)
	hits := 0
	for j := range e.shards {
		lo, hi := st.Starts[j], st.Starts[j+1]
		if lo == hi {
			continue
		}
		hits += e.readRange(&e.shards[j], st.Keys[lo:hi], st.Vals[lo:hi], st.OK[lo:hi])
	}
	for i, oi := range st.Orig {
		vals[oi], ok[oi] = st.Vals[i], st.OK[i]
	}
	return hits
}

// roomFor reports whether n inserts into a non-migrating shard cannot
// cross the growth threshold, i.e. whether the table's own batched
// pipeline may run without per-key growth checks.
func (e *Engine) roomFor(v *view, n int) bool {
	if e.growAt <= 0 {
		return true // growth disabled: the pipeline's ErrFull is the contract
	}
	return float64(occupied(v.cur)+n) < e.growAt*float64(v.cur.Capacity())
}

// checkRMWBatch is RMWBatch's length rule: vals as long as keys, or nil
// when fn is set; out and loaded both nil or at least as long as keys.
func checkRMWBatch(keys, vals, out []uint64, loaded []bool, upsert bool) {
	if len(vals) != len(keys) && !(upsert && vals == nil) {
		panic("shard: RMWBatch keys/vals length mismatch")
	}
	if (out != nil || loaded != nil) && (len(out) < len(keys) || len(loaded) < len(keys)) {
		panic("shard: RMWBatch output slices shorter than keys")
	}
}

// RMWBatch applies RMW to every key in slice order, with vals[i] as key
// i's val (vals may be nil when fn is set) and fn passed the key's lane
// index in the caller's slice: out[i] receives the value key i holds
// afterwards, loaded[i] whether it was there before. out may alias vals;
// out and loaded both nil drop the results and skip the gather. It returns
// the number of newly inserted keys. Duplicate keys are processed in slice
// order (they always share a shard). With growth disabled it stops on
// ErrFull; pairs already applied remain. fn runs under a shard write lock
// and must not call back into the engine.
func (e *Engine) RMWBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	checkRMWBatch(keys, vals, out, loaded, fn != nil)
	m, start := e.batchStart()
	n, err := e.rmwBatch(keys, vals, out, loaded, overwrite, fn)
	if m != nil {
		m.writeBatch(overwrite, fn).Record(e.batchHint(keys), obs.Now()-start)
	}
	return n, err
}

// rmwBatch is RMWBatch's scatter loop: each shard's staged range goes
// through rmwBatchShard once, and the results, when the caller wants them,
// gather back to its lanes.
func (e *Engine) rmwBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	st := takeStaging()
	defer st.release()
	st.fn = fn
	st.route(e.router, e.shift, len(e.shards), keys, vals)
	inserted := 0
	for j := range e.shards {
		lo, hi := st.Starts[j], st.Starts[j+1]
		if lo == hi {
			continue
		}
		st.orig = st.Orig[lo:hi]
		// out aliases vals within the staged range: the tables read the
		// insert value before writing the result lane (and with fn, whose
		// calls route left stale vals, they read none).
		n, err := e.rmwBatchShard(&e.shards[j], st, st.Keys[lo:hi], st.Vals[lo:hi], st.Vals[lo:hi], st.OK[lo:hi], overwrite)
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	if out != nil {
		for i, oi := range st.Orig {
			out[oi], loaded[oi] = st.Vals[i], st.OK[i]
		}
	}
	return inserted, nil
}

// rmwBatchShard applies one shard's staged keys inside its writer's
// seqlock window, with results to out and loaded — the shard-local staging
// views (out may alias vals), or nil to drop them. Without fn a steady
// shard with room runs its table's RMWBatch; with fn, reached through st's
// relay under the caller's lane numbering, and wherever the pipeline
// cannot run, the keys go one by one through rmwLocked.
func (e *Engine) rmwBatchShard(s *shardState, st *staging, keys, vals, out []uint64, loaded []bool, overwrite bool) (inserted int, err error) {
	s.lockShard()
	defer s.unlockShard()
	e.advance(s)
	var relay func(old uint64, exists bool) uint64
	if st.fn != nil {
		relay = st.relay
	} else if v := s.view.Load(); !v.migrating() && e.roomFor(v, len(keys)) {
		inserted, err = v.cur.RMWBatch(keys, vals, out, loaded, overwrite, nil)
		s.live.Add(int64(inserted))
		if err == nil || e.growAt <= 0 {
			return inserted, err
		}
		// The pipeline refused a key (Cuckoo kick failure): the table
		// cannot place keys at this occupancy, so grow now (a factory
		// error leaves the shard steady) and re-apply the whole range key by key,
		// carrying the pipeline's insert count. Re-applying is idempotent:
		// a pair already in is an update to, or a get-or-put hit on, the
		// same value, and is not counted twice; a within-batch duplicate may
		// then report loaded=true for the lane that actually inserted —
		// accepted on this pathological path.
		_ = e.growForRefusal(s, err) // the key-by-key pass below reports each key's outcome
	}
	for i, k := range keys {
		var val uint64
		if vals != nil {
			val = vals[i]
		}
		st.lane = i
		v, existed, err := e.rmwLocked(s, k, val, overwrite, relay)
		if err != nil {
			return inserted, err
		}
		if out != nil {
			out[i], loaded[i] = v, existed
		}
		if !existed {
			inserted++
		}
	}
	return inserted, nil
}

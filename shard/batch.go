package shard

// Cross-shard batched operations: the key column is scattered per shard in
// one stable pass (so duplicate keys — which always share a shard — keep
// their slice order and therefore sequential semantics), each shard's
// staged range is executed per shard exactly once — one seqlock validation
// for reads, one writer-lock acquisition for writes — and results gather
// back to the callers' lanes in input order.
//
// Engines are meant for concurrent callers, so a call never shares scratch
// with another: each takes a staging (the scatter's columns, UpsertBatch's
// relay) from a pool for its own duration and returns it after the
// gather. The scatter grows its columns in place, so once the pool is warm
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

	// UpsertBatch's relays, bound to this staging once, when it is made, so
	// no closure is allocated per call. Both forward to the caller's fn
	// under the caller's lane numbering: relay is handed to the table
	// pipeline and records the last lane computed (see upsertBatchShard);
	// relayAt is handed to rmwLocked, for the staged lane in lane.
	relay    func(lane int, old uint64, exists bool) uint64
	relayAt  func(old uint64, exists bool) uint64
	fn       func(lane int, old uint64, exists bool) uint64
	orig     []int32 // staged lane → caller lane; nil when the range is unscattered
	lane     int
	lastLane int
	lastVal  uint64
}

// maxPooledLanes is the largest scatter (in staged lanes, 25 bytes each)
// that goes back to the pool: sixteen default morsels. A larger one is
// dropped for the collector, so one giant batch cannot pin its columns.
const maxPooledLanes = 1 << 16

var stagingPool = sync.Pool{New: func() any {
	st := new(staging)
	st.relay, st.relayAt = st.relayUpsert, st.relayLane
	return st
}}

// takeStaging hands the caller a staging of its own until release.
func takeStaging() *staging { return stagingPool.Get().(*staging) }

// release returns st to the pool, forgetting the caller's callback and
// lane map.
func (st *staging) release() {
	st.fn, st.orig = nil, nil
	if cap(st.Keys) <= maxPooledLanes {
		stagingPool.Put(st)
	}
}

// callerLane maps a lane of the range the table sees to the caller's.
func (st *staging) callerLane(i int) int {
	if st.orig != nil {
		return int(st.orig[i])
	}
	return i
}

func (st *staging) relayUpsert(lane int, old uint64, exists bool) uint64 {
	v := st.fn(st.callerLane(lane), old, exists)
	st.lastLane, st.lastVal = lane, v
	return v
}

func (st *staging) relayLane(old uint64, exists bool) uint64 {
	return st.fn(st.callerLane(st.lane), old, exists)
}

// stage takes a staging from the pool and routes keys into it: the
// router's bulk-hash pipeline plus one stable counting pass regrouping the
// column (and vals, when the call has values to store) shard-major. The
// caller releases it once the results are gathered.
func (e *Engine) stage(keys, vals []uint64) *staging {
	st := takeStaging()
	st.route(e.router, e.shift, len(e.shards), keys, vals)
	return st
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
	if len(e.shards) == 1 {
		return e.readRange(&e.shards[0], keys, vals[:len(keys)], ok[:len(keys)])
	}
	st := e.stage(keys, nil)
	defer st.release()
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
	return float64(v.cur.Len()+n) < e.growAt*float64(v.cur.Capacity())
}

// rmwBatchShard applies one shard's staged pairs inside its writer's
// seqlock window: PutBatch's when put, else GetOrPutBatch's, whose results go
// to out and loaded — the shard-local staging views (out may alias vals), or
// nil to drop them.
func (e *Engine) rmwBatchShard(s *shardState, keys, vals, out []uint64, loaded []bool, put bool) (inserted int, err error) {
	s.lockShard()
	defer s.unlockShard()
	e.advance(s)
	e.degradedTick(s)
	if v := s.view.Load(); !v.migrating() && e.roomFor(v, len(keys)) {
		if put {
			inserted, err = v.cur.PutBatch(keys, vals)
		} else {
			inserted, err = v.cur.GetOrPutBatch(keys, vals, out, loaded)
		}
		s.live.Add(int64(inserted))
		if err == nil || e.growAt <= 0 {
			return inserted, err
		}
		// The pipeline refused a key (Cuckoo kick failure): the table
		// cannot place keys at this occupancy, so grow now — or degrade
		// when the allocator refuses — and re-apply the whole range key by key,
		// carrying the pipeline's insert count. Re-applying is idempotent:
		// a pair already in is an update to, or a GetOrPut hit on, the same
		// value, and is not counted twice; a within-batch duplicate may
		// then report loaded=true for the lane that actually inserted —
		// accepted on this pathological path.
		_ = e.growForRefusal(s, err) // the key-by-key pass below reports each key's outcome
	}
	for i, k := range keys {
		v, existed, err := e.rmwLocked(s, k, vals[i], put, nil)
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

// rmwBatch is the scatter loop of PutBatch and GetOrPutBatch: each shard's
// staged range goes through rmwBatchShard once, and GetOrPutBatch's results,
// when the caller wants them, gather back to its lanes.
func (e *Engine) rmwBatch(keys, vals, out []uint64, loaded []bool, put bool) (int, error) {
	if len(e.shards) == 1 {
		return e.rmwBatchShard(&e.shards[0], keys, vals, out, loaded, put)
	}
	st := e.stage(keys, vals)
	defer st.release()
	inserted := 0
	for j := range e.shards {
		lo, hi := st.Starts[j], st.Starts[j+1]
		if lo == hi {
			continue
		}
		// out aliases vals within the staged range: the tables read the
		// insert value before writing the result lane.
		n, err := e.rmwBatchShard(&e.shards[j], st.Keys[lo:hi], st.Vals[lo:hi], st.Vals[lo:hi], st.OK[lo:hi], put)
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

// PutBatch upserts the pairs (keys[i], vals[i]) in slice order, returning
// the number of newly inserted keys. With growth disabled it stops on
// ErrFull; pairs already applied remain.
func (e *Engine) PutBatch(keys, vals []uint64) (int, error) {
	if len(keys) != len(vals) {
		panic("shard: PutBatch keys/vals length mismatch")
	}
	m, start := e.batchStart()
	n, err := e.rmwBatch(keys, vals, nil, nil, true)
	if m != nil {
		m.PutBatch.Record(e.batchHint(keys), obs.Now()-start)
	}
	return n, err
}

// GetOrPutBatch applies GetOrPut to every (keys[i], vals[i]) pair in slice
// order: out[i] receives the resulting value, loaded[i] whether the key
// already existed. out may alias vals; out and loaded both nil drop the
// results and skip the gather. It returns the number of newly inserted keys.
func (e *Engine) GetOrPutBatch(keys, vals, out []uint64, loaded []bool) (int, error) {
	if len(vals) != len(keys) {
		panic("shard: GetOrPutBatch keys/vals length mismatch")
	}
	if out != nil && (len(out) < len(keys) || len(loaded) < len(keys)) {
		panic("shard: GetOrPutBatch output slices shorter than keys")
	}
	m, start := e.batchStart()
	n, err := e.rmwBatch(keys, vals, out, loaded, false)
	if m != nil {
		m.GetOrPutBatch.Record(e.batchHint(keys), obs.Now()-start)
	}
	return n, err
}

// upsertBatchShard applies one shard's staged keys; orig maps staged lanes
// back to the caller's lanes for fn (nil when keys is the caller's own
// column). st carries the relays fn is reached through.
func (e *Engine) upsertBatchShard(s *shardState, st *staging, keys []uint64, orig []int32, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	s.lockShard()
	defer s.unlockShard()
	e.advance(s)
	e.degradedTick(s)
	st.fn, st.orig = fn, orig
	inserted := 0
	st.lane = 0
	if v := s.view.Load(); !v.migrating() && e.roomFor(v, len(keys)) {
		// A half-applied UpsertBatch cannot simply be re-applied (fn
		// would observe its own partial effects), so the relay records
		// the last lane fn computed for and its value: on a refusal —
		// unreachable for the probing and chained schemes below the
		// threshold, a failed kick chain for Cuckoo — the pipeline's
		// contract guarantees every earlier lane is stored, and the last
		// computed value is re-stored as a Put (idempotent if it already
		// landed) without invoking fn again.
		st.lastLane = -1
		ins, err := v.cur.UpsertBatch(keys, st.relay)
		s.live.Add(int64(ins))
		if err == nil || e.growAt <= 0 {
			return ins, err
		}
		inserted = ins
		_ = e.growForRefusal(s, err) // the key-by-key pass below reports each key's outcome
		if st.lastLane >= 0 {
			_, existed, err := e.rmwLocked(s, keys[st.lastLane], st.lastVal, true, nil)
			if err != nil {
				return inserted, err
			}
			if !existed {
				inserted++
			}
			st.lane = st.lastLane + 1
		}
	}
	for ; st.lane < len(keys); st.lane++ {
		_, existed, err := e.rmwLocked(s, keys[st.lane], 0, false, st.relayAt)
		if err != nil {
			return inserted, err
		}
		if !existed {
			inserted++
		}
	}
	return inserted, nil
}

// UpsertBatch applies an Upsert to every key in slice order, passing fn
// the key's lane index in the original slice. Duplicate keys are processed
// in slice order (they always share a shard). It returns the number of
// newly inserted keys. fn runs under a shard write lock and must not call
// back into the engine.
func (e *Engine) UpsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	m, start := e.batchStart()
	n, err := e.upsertBatch(keys, fn)
	if m != nil {
		m.UpsertBatch.Record(e.batchHint(keys), obs.Now()-start)
	}
	return n, err
}

func (e *Engine) upsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	if len(e.shards) == 1 {
		st := takeStaging()
		defer st.release()
		return e.upsertBatchShard(&e.shards[0], st, keys, nil, fn)
	}
	st := e.stage(keys, nil)
	defer st.release()
	inserted := 0
	for j := range e.shards {
		lo, hi := st.Starts[j], st.Starts[j+1]
		if lo == hi {
			continue
		}
		n, err := e.upsertBatchShard(&e.shards[j], st, st.Keys[lo:hi], st.Orig[lo:hi], fn)
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

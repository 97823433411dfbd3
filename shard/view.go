package shard

// view is one shard's published read state: the epoch mechanism behind
// the engine's wait-free readers. Exactly one view per shard is current
// at any instant, installed through shardState.view (an atomic pointer)
// by the shard's serialized writers; readers load the pointer once and
// probe the tables it names without taking any lock.
//
// The view STRUCT is immutable after publication — writers never assign
// its fields in place; structural transitions (a resize beginning or
// finishing, a rebuild, a degraded-state flip) build a fresh view and
// republish the pointer. The TABLES a view names are not immutable: the
// active write target (cur in the steady state, next during a resize)
// is mutated in place by writers, and dead gains entries as keys frozen
// in cur are deleted. Those in-place mutations are what the per-shard
// sequence counter guards: writers hold the counter odd across every
// mutation (lockShard/unlockShard), and a reader that observed an odd
// count, or a count that changed across its probe, discards what it
// read and retries.
//
// # Snapshot semantics
//
// A validated read (sequence even and unchanged across the probe) is a
// consistent point-in-time snapshot OF ONE SHARD: it observed the
// frozen/successor/dead-overlay chain with no writer mid-flight, so the
// value it returns was the shard's current value at some instant inside
// the probe window — single-key reads are linearizable. There is no
// cross-shard snapshot anywhere in the engine: aggregates (Len, Stats)
// combine per-shard-consistent observations taken at different
// instants, and a batched read validates per shard, not per batch.
type view struct {
	// cur is the shard's main table. Outside a resize it is the write
	// target; during one it is frozen (no write ever touches it again),
	// which is what makes the migration cursor and lock-free probes of
	// it safe.
	cur Table
	// next is the resize successor (nil outside a resize): the write
	// target while the migration cursor drains cur into it. Readers
	// consult it first.
	next Table
	// dead is the overlay of keys deleted while frozen in cur (nil
	// outside a resize). Insert-only and pre-sized at freeze time, so
	// its backing array never moves while published.
	dead *deadSet
	// degraded mirrors the shard's degraded-but-serving state (the
	// allocator is failing; see the package docs) so observers read it
	// without the writer lock.
	degraded bool
	// gen counts this shard's publications; strictly increasing. It
	// lets tests and debugging tie an observation to an epoch.
	gen uint64
}

// get probes the chain: successor first, then the frozen table minus
// the dead overlay. Under a validated seqlock window this is exactly
// the migration-aware lookup writers use.
func (v *view) get(key uint64) (uint64, bool) {
	if v.next != nil {
		if val, ok := v.next.Get(key); ok {
			return val, true
		}
		if v.dead.has(key) {
			return 0, false
		}
	}
	return v.cur.Get(key)
}

// curLive looks key up in the frozen table honoring the dead overlay
// (writer-side helper during a migration).
func (v *view) curLive(key uint64) (uint64, bool) {
	if v.dead.has(key) {
		return 0, false
	}
	return v.cur.Get(key)
}

// migrating reports whether this view has a resize in flight.
func (v *view) migrating() bool { return v.next != nil }

// ---------------------------------------------------------------------------
// Dead-key overlay
// ---------------------------------------------------------------------------

// deadSetSeedMix scrambles keys into dead-set slots (fibonacci hashing);
// independent of the router and table hash streams.
const deadSetSeedMix = 0x9e3779b97f4a7c15

// deadSet records the keys whose frozen-table entry is deleted. It used
// to be a Go map, but map reads racing a map write crash the runtime
// outright (the map's own concurrency detector is always armed), which
// rules maps out of a seqlock-guarded read path. This set is built for
// exactly that path:
//
//   - insert-only: a key, once dead, stays dead for the migration's
//     lifetime (re-inserting the key writes the successor, which readers
//     consult first);
//   - pre-sized: only keys living in the frozen table can be marked dead,
//     so capacity is fixed at freeze time (2x the frozen live count) and
//     the backing array NEVER grows or moves while published — a racing
//     reader can observe a half-written slot, never a dangling one;
//   - zero-sentinel-free: slot value 0 means empty; key 0 lives in a
//     dedicated word.
//
// Writers mutate it only inside the shard's seqlock window; a reader's
// torn observation is discarded by sequence validation like any other.
type deadSet struct {
	slots []uint64 // open-addressed, linear probing; 0 = empty
	mask  uint64
	zero  uint64 // 1 when key 0 is dead (0 is the empty-slot sentinel)
	n     int    // live inserts (capacity accounting, and has's nothing-dead test)
}

// newDeadSet sizes the overlay for at most capacity inserts: the next
// power of two ≥ 2*capacity (minimum 8), so linear probing stays short
// and the set can never fill.
func newDeadSet(capacity int) *deadSet {
	n := 8
	for n < 2*capacity {
		n <<= 1
	}
	return &deadSet{slots: make([]uint64, n), mask: uint64(n - 1)}
}

// has reports whether k is marked dead. Safe to call from seqlock
// readers: every load is from a fixed-size array or a plain word, and a
// torn answer is discarded by the caller's sequence validation. A nil
// set (no resize in flight) has nothing dead, and neither has a set
// nothing was added to: an insert-only resize — the common one — answers
// every migrating read from the two counters, without a random load into
// an array sized like the frozen table itself.
func (d *deadSet) has(k uint64) bool {
	if d == nil || (d.n == 0 && d.zero == 0) {
		return false
	}
	if k == 0 {
		return d.zero != 0
	}
	i := (k * deadSetSeedMix) & d.mask
	for {
		slot := d.slots[i]
		if slot == k {
			return true
		}
		if slot == 0 {
			return false
		}
		i = (i + 1) & d.mask
	}
}

// add marks k dead. Writer-only, inside the seqlock window; the caller
// guarantees at most the pre-sized capacity of distinct keys (only keys
// living in the frozen table are ever added, each at most once).
func (d *deadSet) add(k uint64) {
	if k == 0 {
		d.zero = 1
		return
	}
	i := (k * deadSetSeedMix) & d.mask
	for d.slots[i] != 0 {
		if d.slots[i] == k {
			return
		}
		i = (i + 1) & d.mask
	}
	d.slots[i] = k
	d.n++
}

// ---------------------------------------------------------------------------
// Seqlock window + publication chokepoint
// ---------------------------------------------------------------------------

// lockShard opens a writer's seqlock window: it acquires the shard's
// writer lock, then makes the sequence odd so optimistic readers know a
// mutation is in flight. Every in-place mutation of the shard's tables
// (and every view publication) must happen between lockShard and
// unlockShard. This helper and unlockShard are the only places the
// sequence word is touched — the lockdiscipline analyzer enforces it.
func (s *shardState) lockShard() {
	s.mu.Lock()
	s.seq.Add(1)
}

// unlockShard closes the window: sequence back to even (readers that
// overlapped the window see a changed count and retry), then the writer
// lock is released.
func (s *shardState) unlockShard() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// publish installs v as s's current view. It is the one view-publication
// chokepoint (the lockdiscipline analyzer flags view.Store anywhere
// else) and must run inside a writer's seqlock window — publishing with
// an even sequence would let a reader mix tables from two epochs without
// noticing, so that is a programming error worth dying for.
func (e *Engine) publish(s *shardState, v *view) {
	if s.seq.Load()&1 == 0 {
		panic("shard: view published outside a writer's seqlock window")
	}
	if prev := s.view.Load(); prev != nil {
		v.gen = prev.gen + 1
	} else {
		v.gen = 1 // birth epoch: New publishes the first view
	}
	s.view.Store(v)
	e.viewPublishes.Add(1)
	if m := e.metrics.Load(); m != nil {
		m.ViewRepublish.Inc(s.idx)
	}
}

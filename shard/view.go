package shard

import (
	"runtime"
	"sync"

	"repro/obs"
)

// view is one shard's published read state: the epoch mechanism behind
// the engine's wait-free readers. Exactly one view per shard is current
// at any instant, installed through shardState.view (an atomic pointer)
// by the shard's serialized writers; readers load the pointer once and
// probe the tables it names without taking any lock.
//
// The view STRUCT is immutable after publication — writers never assign
// its fields in place; structural transitions (a resize beginning or
// finishing, a dead overlay doubling, a rebuild) build a fresh view and
// republish the pointer. The TABLES a view names are not immutable: the
// active write target (cur in the steady state, next during a resize)
// is mutated in place by writers, and dead gains entries as keys frozen in
// cur are deleted or overwritten. Those in-place mutations are what the
// per-shard sequence counter guards: writers hold the counter odd across
// every mutation (lockShard/unlockShard), and a reader that observed an
// odd count, or a count that changed across its probe, discards what it
// read and retries.
//
// One write needs no window: a steady shard's scalar Delete moves nothing.
// Under the writer lock it records the key in the shard's pending set
// (pending.go), which readers consult through the view and which the next
// window applies to the table before anything else. get and getRange mask
// a pending key's hit, so a validated read sees the table minus the keys
// pending at the instant it loaded the set's count: the tables it probed
// cannot change without a window, and the set only grows between windows.
//
// The sequence word is also what a batched read at an open window
// (readRange) watches, for about one batch hold, before it reads its range
// under the lock, since that fallback holds writers off. Watching only
// loads; every transition of the word stays in lockShard/unlockShard. A
// writer behind a held lock (acquire) does not watch the word: it yields
// between tries of the lock for up to lockYieldNanos, then parks (read.go
// has both bounds).
//
// # Snapshot semantics
//
// A validated read (sequence even and unchanged across the probe) is a
// consistent point-in-time snapshot OF ONE SHARD: it observed the
// frozen table, dead overlay and successor with no writer mid-flight, and
// the pending set as of one load of its count, so the value it returns was
// the shard's current value at some instant inside the probe window —
// single-key reads are linearizable. There is no cross-shard snapshot
// anywhere in the engine: aggregates (Len, Stats) combine
// per-shard-consistent observations taken at different instants, and a
// batched read validates per shard, not per batch.
type view struct {
	// cur is the shard's main table. Outside a resize it is the write
	// target; during one it is frozen (no write ever touches it again),
	// which is what makes the migration cursor and lock-free probes of
	// it safe.
	cur Table
	// next is the resize successor (nil outside a resize): the write
	// target while the migration cursor drains cur into it. Readers ask
	// it only about keys cur lacks or dead marks.
	next Table
	// dead is the overlay of keys deleted or overwritten while frozen in
	// cur (nil outside a resize). Insert-only, and never reallocated in
	// place: a set that outgrows its array is republished as a larger copy.
	dead *deadSet
	// gen counts this shard's publications; strictly increasing. It
	// lets tests and debugging tie an observation to an epoch.
	gen uint64
	// pend is the shard's pending set (the same one in every epoch),
	// which only a steady view's reads need: a logical delete needs a
	// steady shard, and a migration begins after the window's apply.
	pend *pendingSet
}

// get asks a steady shard's table minus the pending set, or a migrating
// shard's frozen table minus the dead overlay, else the successor: writers
// mark every frozen entry that stops holding its key's value, so under a
// validated seqlock window this is the lookup writers use.
func (v *view) get(key uint64) (uint64, bool) {
	val, ok := v.cur.Get(key)
	if !v.migrating() {
		if ok && v.pend.has(key) {
			return 0, false
		}
		return val, ok
	}
	if ok && !v.dead.has(key) {
		return val, ok
	}
	return v.next.Get(key)
}

// getRange is get over a staged key column, returning the number of
// hits. Every lookup is a table's own batched one — bulk-hashed, home lines
// touched together, lanes walked round-robin — which reads only (its chunk
// scratch is per call) and terminates whatever a racing writer shows it,
// so getRange runs inside a reader's unvalidated window as well as under
// the lock. A steady-state view hands its table the whole column, then
// clears the hits of pending keys. A migrating view is get a table at a
// time: the frozen table answers the whole column, the lanes it missed or
// the overlay marks dead are compacted readStride at a time into scratch
// of the call's own, and the successor answers those.
func (v *view) getRange(keys, vals []uint64, ok []bool) int {
	if !v.migrating() {
		return v.cur.GetBatch(keys, vals, ok) - v.pend.mask(keys, vals, ok)
	}
	v.cur.GetBatch(keys, vals, ok)
	m := missBufs.Get().(*missBuf)
	hits, n := 0, 0
	for i, k := range keys {
		if ok[i] && !v.dead.has(k) {
			hits++
			continue
		}
		m.keys[n], m.lane[n] = k, int32(i)
		if n++; n == readStride {
			hits += m.lookUp(v.next, n, vals, ok)
			n = 0
		}
	}
	if n > 0 {
		hits += m.lookUp(v.next, n, vals, ok)
	}
	missBufs.Put(m)
	return hits
}

// lookUp answers the first n collected lanes from the successor and
// scatters the answers back to the lanes the keys came from.
func (m *missBuf) lookUp(next Table, n int, vals []uint64, ok []bool) int {
	hits := next.GetBatch(m.keys[:n], m.vals[:n], m.ok[:n])
	for j, lane := range m.lane[:n] {
		vals[lane], ok[lane] = m.vals[j], m.ok[j]
	}
	return hits
}

// readStride is how many lanes a migrating getRange collects for one
// lookup of the successor: four of the tables' chunks.
const readStride = 256

// missBuf is one migrating getRange's scratch: the collected keys, the
// lanes they came from and the successor's answers. From a pool, like the
// tables' own chunk scratch — on the stack it would escape through the
// Table interface — so nothing a shard owns is written inside a window.
type missBuf struct {
	keys, vals [readStride]uint64
	lane       [readStride]int32
	ok         [readStride]bool
}

var missBufs = sync.Pool{New: func() any { return new(missBuf) }}

// curLive looks key up in the frozen table honoring the dead overlay
// (writer-side helper during a migration).
func (v *view) curLive(key uint64) (uint64, bool) {
	if v.dead.has(key) {
		return 0, false
	}
	return v.cur.Get(key)
}

// migrating reports whether this view has a resize in flight: the one
// test between a shard's two states, steady and migrating.
func (v *view) migrating() bool { return v.next != nil }

// ---------------------------------------------------------------------------
// Dead-key overlay
// ---------------------------------------------------------------------------

// deadSetSeedMix scrambles keys into dead-set slots (fibonacci hashing);
// independent of the router and table hash streams.
const deadSetSeedMix = 0x9e3779b97f4a7c15

// deadSet records the keys whose frozen-table entry is deleted or
// overwritten. It used to be a Go map, but map reads racing a map write
// crash the runtime outright (the map's own concurrency detector is always
// armed), which rules maps out of a seqlock-guarded read path. This set is
// built for exactly that path, and for the migration step, which checks
// every entry it moves against it:
//
//   - insert-only: a key, once dead, stays dead for the migration's
//     lifetime (re-inserting or updating the key writes the successor,
//     which readers ask about every dead key);
//   - cache-resident: it starts at deadSetFloor slots whatever the frozen
//     table's size, so the step's lookup per entry is a cache hit, not a
//     miss into an array as large as the table;
//   - never reallocated in place: a published set's backing array has a
//     fixed size and address, so a racing reader can observe a
//     half-written slot, never a dangling one. A set at half load is
//     doubled by republication — the writer builds the larger copy
//     (grown), publishes a view naming it, and adds the key there;
//   - zero-sentinel-free: slot value 0 means empty; key 0 lives in a
//     dedicated word.
//
// Writers mutate it only inside the shard's seqlock window; a reader's
// torn observation is discarded by sequence validation like any other.
type deadSet struct {
	slots []uint64 // open-addressed, linear probing; 0 = empty
	mask  uint64
	zero  uint64 // 1 when key 0 is dead (0 is the empty-slot sentinel)
	n     int    // live inserts (load accounting, and has's nothing-dead test)
}

// deadSetFloor is a new overlay's slot count: 4 KiB, small enough to stay
// in L1, large enough (256 dead keys before the first doubling) that at
// the default chunk only a resize of more than ~64K entries, or one under
// mostly deletes, republishes for growth.
const deadSetFloor = 512

func newDeadSet() *deadSet {
	return &deadSet{slots: make([]uint64, deadSetFloor), mask: deadSetFloor - 1}
}

// full reports that one more key would take the set past half load, which
// keeps linear probing short: the writer must switch to grown() first.
func (d *deadSet) full() bool { return 2*(d.n+1) > len(d.slots) }

// grown returns a copy of d with twice the slots. d itself is left as it
// is for the readers that may still be probing it.
func (d *deadSet) grown() *deadSet {
	g := &deadSet{slots: make([]uint64, 2*len(d.slots)), mask: 2*d.mask + 1, zero: d.zero}
	for _, k := range d.slots {
		if k != 0 {
			g.add(k)
		}
	}
	return g
}

// has reports whether k is marked dead. Safe to call from seqlock
// readers: every load is from a fixed-size array or a plain word, and a
// torn answer is discarded by the caller's sequence validation. A nil
// set (no resize in flight) has nothing dead, and neither has a set
// nothing was added to: a resize under fresh inserts only — the common
// one — answers every migrating read from the two counters.
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
// checks full() first, so the probe always meets an empty slot.
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

// watchEnd is when a batched reader starting now stops watching an open
// window (readRange): nanos from now — or at once with one P, where the
// holder cannot run while the reader watches.
func watchEnd(nanos int64) int64 {
	if runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return obs.Now() + nanos
}

// awaitEven loads the sequence word until no writer's window is open, and
// reports false if the clock passed end first.
func (s *shardState) awaitEven(end int64) bool {
	for obs.Now() < end {
		if s.seq.Load()&1 == 0 {
			return true
		}
	}
	return false
}

// acquire takes the shard's writer lock, for writers (lockShard) and the
// readers' locked fallbacks alike: the one place outside stats.go's
// observers where s.mu is taken. A held lock is tried again between
// runtime.Gosched calls for up to lockYieldNanos, and only then slept on.
// A yield hands the P to any runnable goroutine, so it costs nothing when
// there is other work; when there is none it comes straight back, and the
// waiter never pays a sleeping thread's wake-up, which is what a park costs
// here (see lockYieldNanos). The yields also let the holder run where the
// two share the only P. A waiter that outlasts the bound queues on the
// mutex (Stats.LockParks), so progress and starvation-mode fairness
// (TryLock then fails) are sync.Mutex's own. Metrics.LockWait times every
// contended acquire from its first failed TryLock to the lock held.
func (s *shardState) acquire() {
	if s.mu.TryLock() {
		return
	}
	start := obs.Now()
	for now := start; now-start < lockYieldNanos; now = obs.Now() {
		runtime.Gosched()
		if s.mu.TryLock() {
			s.lockWaited(start)
			return
		}
	}
	s.eng.lockParks.Inc(s.idx)
	s.mu.Lock()
	s.lockWaited(start)
}

// lockWaited records a contended acquire that began at start.
func (s *shardState) lockWaited(start int64) {
	if m := s.eng.metrics.Load(); m != nil {
		m.LockWait.Record(s.idx, obs.Now()-start)
	}
}

// lockShard opens a writer's seqlock window: it acquires the shard's
// writer lock, makes the sequence odd so optimistic readers know a
// mutation is in flight, and applies the pending deletes, so whatever the
// window does next — a growth check, a migration, Table.Len — never sees a
// pending key. Every in-place mutation of the shard's tables (and every
// view publication) must happen between lockShard and unlockShard. This
// helper and unlockShard are the only places the sequence word is written
// — the lockdiscipline analyzer enforces it.
func (s *shardState) lockShard() {
	s.acquire()
	s.seq.Add(1)
	if s.pend.n.Load() != 0 {
		s.pend.apply(s.view.Load().cur)
	}
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
	v.pend = &s.pend
	s.view.Store(v)
	e.viewPublishes.Inc(s.idx)
}

// Package shard is a fixture of the locking discipline: the good
// functions follow the real engine's idioms (defer-paired locks, all
// allocation through allocTable, exec submissions only after release),
// the bad ones each break exactly one rule.
package shard

import (
	"sync"
	"sync/atomic"

	"lockdiscipline/exec"
)

type table struct{ n int }

type state struct {
	mu  sync.RWMutex
	tab *table
}

// Engine mirrors the real engine's shape: a raw factory stored as
// create, a pool handle, and per-shard locked state.
type Engine struct {
	shards []state
	create func() *table
	pool   *exec.Pool
}

// allocTable is the one fallible allocation chokepoint: the only
// function allowed to invoke the raw factory.
func (e *Engine) allocTable() *table { return e.create() }

// goodSwap follows the discipline end to end.
func (e *Engine) goodSwap(i int) {
	s := &e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab = e.allocTable()
}

// goodRead pairs the read lock explicitly.
func (e *Engine) goodRead(i int) int {
	s := &e.shards[i]
	s.mu.RLock()
	n := s.tab.n
	s.mu.RUnlock()
	return n
}

// goodSubmit releases the shard lock before submitting to the pool.
func (e *Engine) goodSubmit(i int) error {
	s := &e.shards[i]
	s.mu.Lock()
	tab := s.tab
	s.mu.Unlock()
	return e.pool.ForEach(tab.n, func(_, _ int) error { return nil })
}

// badLeak takes the lock and returns without releasing it.
func (e *Engine) badLeak(i int) {
	s := &e.shards[i]
	s.mu.Lock() // want `s\.mu\.Lock\(\) without a matching Unlock`
	s.tab = e.allocTable()
}

// badReadLeak does the same with the read flavor.
func (e *Engine) badReadLeak(i int) int {
	s := &e.shards[i]
	s.mu.RLock() // want `s\.mu\.RLock\(\) without a matching RUnlock`
	return s.tab.n
}

// badFactory invokes the raw factory outside allocTable.
func (e *Engine) badFactory(i int) {
	e.shards[i].tab = e.create() // want `raw table-factory call outside allocTable`
}

// badSubmit submits to the pool while the shard lock is held.
func (e *Engine) badSubmit(i int) error {
	s := &e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.pool.ForEach(1, func(_, _ int) error { return nil }) // want `call into exec while s\.mu is locked`
}

// metrics is a stub of the padded-stripe recorder the real engine
// attaches: recording is a plain atomic add, so the discipline has
// nothing to say about the recording itself — only about where the
// surrounding code takes and releases shard locks.
type metrics struct {
	stripes [8]struct {
		n atomic.Uint64
		_ [56]byte
	}
}

func (m *metrics) record(i int, d uint64) { m.stripes[i&7].n.Add(d) }

// goodRecordOutsideLock mirrors the real scalar op wrappers: explicit
// release first, then the atomic record against the released shard.
func (e *Engine) goodRecordOutsideLock(i int, m *metrics) int {
	s := &e.shards[i]
	s.mu.Lock()
	n := s.tab.n
	s.mu.Unlock()
	m.record(i, uint64(n))
	return n
}

// goodRecordUnderLock is legal too: an atomic add is not an exec call,
// so holding the shard lock across it breaks no rule.
func (e *Engine) goodRecordUnderLock(i int, m *metrics) {
	s := &e.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	m.record(i, uint64(s.tab.n))
}

// badSnapshotSubmit folds a metrics snapshot into the pool while the
// read lock is still held — the recording is fine, the submission is
// the violation.
func (e *Engine) badSnapshotSubmit(i int, m *metrics) error {
	s := &e.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	m.record(i, uint64(s.tab.n))
	return e.pool.ForEach(1, func(_, _ int) error { return nil }) // want `call into exec while s\.mu is locked`
}

// badRecordLeak records after taking a lock it never releases; the
// atomic add does not launder the leak.
func (e *Engine) badRecordLeak(i int, m *metrics) {
	s := &e.shards[i]
	s.mu.Lock() // want `s\.mu\.Lock\(\) without a matching Unlock`
	m.record(i, uint64(s.tab.n))
}

// seqState mirrors the real engine's wait-free-read shard: a writer
// mutex, the seqlock word readers validate, and the published view
// pointer.
type seqState struct {
	mu   sync.Mutex
	seq  atomic.Uint64
	view atomic.Pointer[table]
}

// acquire is the watch-then-park helper every acquisition of mu goes
// through: a TryLock, a watch of the sequence word, the blocking Lock
// last. It returns holding the lock, so it is exempt from lock pairing —
// and from nothing else: it only loads seq.
func (s *seqState) acquire() {
	if s.mu.TryLock() {
		return
	}
	for i := 0; i < 1000; i++ {
		if s.seq.Load()&1 == 0 && s.mu.TryLock() {
			return
		}
	}
	s.mu.Lock()
}

// lockShard/unlockShard are the seqlock window helpers: the only
// functions allowed to touch seq, and exempt from lock pairing (the
// acquire and release are split across them by design).
func (s *seqState) lockShard() {
	s.acquire()
	s.seq.Add(1)
}

func (s *seqState) unlockShard() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// publish is the one view-publication chokepoint.
func (e *Engine) publish(s *seqState, t *table) {
	s.view.Store(t)
}

// goodWindow follows the window idiom end to end: helper-paired lock,
// in-window mutation, publication through the chokepoint.
func (e *Engine) goodWindow(s *seqState) {
	s.lockShard()
	defer s.unlockShard()
	e.publish(s, e.allocTable())
}

// goodWindowSubmit releases the window before submitting to the pool.
func (e *Engine) goodWindowSubmit(s *seqState) error {
	s.lockShard()
	t := s.view.Load()
	s.unlockShard()
	return e.pool.ForEach(t.n, func(_, _ int) error { return nil })
}

// badWindowLeak opens a window and returns without closing it: readers
// see an odd sequence forever and every read falls back to the lock.
func (e *Engine) badWindowLeak(s *seqState) {
	s.lockShard() // want `s\.lockShard\(\) without a matching unlockShard`
	e.publish(s, e.allocTable())
}

// badWindowSubmit submits to the pool while the window (and therefore
// the writer lock) is held.
func (e *Engine) badWindowSubmit(s *seqState) error {
	s.lockShard()
	defer s.unlockShard()
	return e.pool.ForEach(1, func(_, _ int) error { return nil }) // want `call into exec while s is locked`
}

// badSeqBump mutates the seqlock word outside the window helpers: the
// mutation is invisible to the pairing rule (seq is not a mutex) but
// tears the reader protocol.
func (e *Engine) badSeqBump(s *seqState) {
	s.seq.Add(1) // want `seqlock word mutated outside lockShard/unlockShard`
}

// badSeqStore is the same violation through Store.
func (e *Engine) badSeqStore(s *seqState) {
	s.seq.Store(0) // want `seqlock word mutated outside lockShard/unlockShard`
}

// badPublish stores the view pointer directly, skipping the chokepoint's
// window assertion and accounting.
func (e *Engine) badPublish(s *seqState, t *table) {
	s.lockShard()
	defer s.unlockShard()
	s.view.Store(t) // want `shard view stored outside publish`
}

// goodAcquireRead is the readers' locked fallback: the helper takes mu,
// a bare Unlock releases it.
func (e *Engine) goodAcquireRead(s *seqState) int {
	s.acquire()
	n := s.view.Load().n
	s.mu.Unlock()
	return n
}

// goodTryLock gives up when the lock is busy and releases it otherwise.
func (e *Engine) goodTryLock(s *seqState) int {
	if !s.mu.TryLock() {
		return -1
	}
	defer s.mu.Unlock()
	return s.view.Load().n
}

// goodTrySubmit holds the lock only inside the branch that got it and
// submits to the pool after the release.
func (e *Engine) goodTrySubmit(s *seqState) error {
	n := 1
	if s.mu.TryLock() {
		n = s.view.Load().n
		s.mu.Unlock()
	}
	return e.pool.ForEach(n, func(_, _ int) error { return nil })
}

// badTryLeak keeps the lock whenever TryLock got it.
func (e *Engine) badTryLeak(s *seqState) int {
	if s.mu.TryLock() { // want `s\.mu\.TryLock\(\) without a matching Unlock`
		return s.view.Load().n
	}
	return -1
}

// badAcquireLeak does the same through the helper.
func (e *Engine) badAcquireLeak(s *seqState) int {
	s.acquire() // want `s\.acquire\(\) without a matching Unlock`
	return s.view.Load().n
}

// badTrySubmit submits to the pool from the branch that holds the lock.
func (e *Engine) badTrySubmit(s *seqState) error {
	if s.mu.TryLock() {
		defer s.mu.Unlock()
		return e.pool.ForEach(1, func(_, _ int) error { return nil }) // want `call into exec while s\.mu is locked`
	}
	return nil
}

// badTryElseSubmit holds the lock past the early return of the branch
// that did not get it.
func (e *Engine) badTryElseSubmit(s *seqState) error {
	if !s.mu.TryLock() {
		return nil
	}
	defer s.mu.Unlock()
	return e.pool.ForEach(1, func(_, _ int) error { return nil }) // want `call into exec while s\.mu is locked`
}

// badAcquireSubmit submits to the pool under a lock the helper took.
func (e *Engine) badAcquireSubmit(s *seqState) error {
	s.acquire()
	defer s.mu.Unlock()
	return e.pool.ForEach(1, func(_, _ int) error { return nil }) // want `call into exec while s\.mu is locked`
}

// bumpState has an acquire that opens the window itself: the helper's
// name buys an exemption from lock pairing, not from the seqlock rule.
type bumpState struct {
	mu  sync.Mutex
	seq atomic.Uint64
}

func (s *bumpState) acquire() {
	s.mu.Lock()
	s.seq.Add(1) // want `seqlock word mutated outside lockShard/unlockShard`
}

// pendingSet stands in for the engine's logical deletes: readers load it
// atomically, and whoever holds the shard lock is its one writer, which
// stores keys, slots and filter plainly and publishes them with the count.
type pendingSet struct {
	n      atomic.Int32
	filter [8]uint64
	slots  [512]uint32
	keys   [256]uint64
}

// add and apply may store the plain words: their count store publishes them.
func (p *pendingSet) add(key uint64) {
	n := p.n.Load()
	p.keys[n] = key
	p.slots[key%512] = uint32(n + 1)
	p.filter[key%8] |= 1
	p.n.Store(n + 1)
}

func (p *pendingSet) apply(t *table) {
	for i := range p.n.Load() {
		p.slots[p.keys[i]%512] = 0
	}
	p.filter = [8]uint64{}
	p.n.Store(0)
}

func (p *pendingSet) has(key uint64) bool {
	n := p.n.Load()
	return n > 0 && atomic.LoadUint64(&p.keys[n-1]) == key
}

// forget clears a slot itself, with nothing to publish the store.
func (p *pendingSet) forget(key uint64) {
	p.slots[key%512] = 0 // want `pending set's slots stored outside add and apply`
	p.slots[key%512]++   // want `pending set's slots stored outside add and apply`
}

// reset is not apply: the count it stores is not the writer's.
func (p *pendingSet) reset() {
	p.filter = [8]uint64{} // want `pending set's filter stored outside add and apply`
	p.n.Store(0)
}

// add on another type is not the pending set's writer.
type keyLog struct{ pend *pendingSet }

func (l keyLog) add(key uint64) {
	l.pend.keys[0] = key // want `pending set's keys stored outside add and apply`
}

// pendState is a shard with a pending set.
type pendState struct {
	seqState
	pend pendingSet
}

// goodPendingAdd adds under the lock the acquire helper took.
func (e *Engine) goodPendingAdd(s *pendState, key uint64) {
	s.acquire()
	defer s.mu.Unlock()
	if !s.pend.has(key) {
		s.pend.add(key)
	}
}

// goodPendingApply applies inside a window.
func (e *Engine) goodPendingApply(s *pendState) {
	s.lockShard()
	s.pend.apply(s.view.Load())
	s.unlockShard()
}

// badPendingAdd adds with no lock held; reading the set is fine.
func (e *Engine) badPendingAdd(s *pendState, key uint64) {
	if !s.pend.has(key) {
		s.pend.add(key) // want `pending set's add called with no shard lock held`
	}
}

// badPendingStore writes a key under the lock, but not through add: no
// count store publishes it.
func (e *Engine) badPendingStore(s *pendState, key uint64) {
	s.acquire()
	defer s.mu.Unlock()
	s.pend.keys[s.pend.n.Load()] = key // want `pending set's keys stored outside add and apply`
}

// badPendingApply applies after the window has closed.
func (e *Engine) badPendingApply(s *pendState) {
	s.lockShard()
	t := s.view.Load()
	s.unlockShard()
	s.pend.apply(t) // want `pending set's apply called with no shard lock held`
}

// badPendingAddElseIf adds with no lock held in an else-if branch.
func (e *Engine) badPendingAddElseIf(s *pendState, key uint64) {
	if s.pend.has(key) {
		return
	} else if key != 0 {
		s.pend.add(key) // want `pending set's add called with no shard lock held`
	}
}

// badPendingAddLabeled adds with no lock held in a labeled loop.
func (e *Engine) badPendingAddLabeled(s *pendState, keys []uint64) {
outer:
	for _, key := range keys {
		if s.pend.has(key) {
			continue outer
		}
		s.pend.add(key) // want `pending set's add called with no shard lock held`
	}
}

// badPendingAddSelect adds with no lock held in a select case.
func (e *Engine) badPendingAddSelect(s *pendState, key uint64, done <-chan struct{}) {
	select {
	case <-done:
		s.pend.add(key) // want `pending set's add called with no shard lock held`
	default:
	}
}

// badElseIfSubmit submits to the pool under the lock from an else-if
// condition and from its body; each call is reported once.
func (e *Engine) badElseIfSubmit(s *seqState, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == 0 {
		return nil
	} else if err := e.pool.ForEach(n, func(_, _ int) error { return nil }); err != nil { // want `call into exec while s\.mu is locked`
		return err
	} else if n > 1 {
		return e.pool.ForEach(n, func(_, _ int) error { return nil }) // want `call into exec while s\.mu is locked`
	}
	return nil
}

package shard

// Internal tests of the epoch/view machinery: the deadSet overlay, the
// publication chokepoint's invariants, and the birth-epoch accounting.
// (The seqlock read protocol's behavioral tests are build-tagged in
// seqlock_norace_test.go; the concurrent hammers live in the external
// differential suite.)

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fault"
)

// testTable is a map-backed Table for the in-package tests (the real
// table package imports shard, so it cannot be used here). It refuses
// inserts past its capacity like a growth-disabled scheme. Not safe for
// the concurrent hammers — those live in the external suite on real
// tables; these tests mutate single-threaded.
type testTable struct {
	m   map[uint64]uint64
	cap int
}

var errTestFull = errors.New("testTable full")

func newTestTable(capacity int, _ uint64) (Table, error) {
	if capacity < 1 {
		capacity = 1
	}
	return &testTable{m: make(map[uint64]uint64, capacity), cap: capacity}, nil
}

func (t *testTable) Get(key uint64) (uint64, bool) { v, ok := t.m[key]; return v, ok }
func (t *testTable) Delete(key uint64) bool {
	_, ok := t.m[key]
	delete(t.m, key)
	return ok
}
func (t *testTable) RMW(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	old, ok := t.m[key]
	if !ok && len(t.m) >= t.cap {
		return 0, false, errTestFull
	}
	switch {
	case fn != nil:
		val = fn(old, ok)
	case ok && !overwrite:
		val = old
	}
	t.m[key] = val
	return val, ok, nil
}
func (t *testTable) GetBatch(keys, vals []uint64, ok []bool) int {
	hits := 0
	for i, k := range keys {
		vals[i], ok[i] = t.m[k], false
		if _, present := t.m[k]; present {
			ok[i] = true
			hits++
		}
	}
	return hits
}
func (t *testTable) RMWBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	ins := 0
	for i, k := range keys {
		var val uint64
		if vals != nil {
			val = vals[i]
		}
		var lane func(old uint64, exists bool) uint64
		if fn != nil {
			lane = func(old uint64, exists bool) uint64 { return fn(i, old, exists) }
		}
		v, ld, err := t.RMW(k, val, overwrite, lane)
		if err != nil {
			return ins, err
		}
		if out != nil {
			out[i], loaded[i] = v, ld
		}
		if !ld {
			ins++
		}
	}
	return ins, nil
}
func (t *testTable) Len() int                { return len(t.m) }
func (t *testTable) Capacity() int           { return t.cap }
func (t *testTable) MemoryFootprint() uint64 { return uint64(t.cap) * 16 }

// RangeFrom walks the keys in ascending order: position i is the i-th
// smallest key, stable for as long as the table is frozen.
func (t *testTable) RangeFrom(pos int, fn func(k, v uint64) bool) int {
	keys := slices.Sorted(maps.Keys(t.m))
	for i := pos; i < len(keys); i++ {
		if !fn(keys[i], t.m[keys[i]]) {
			return i + 1
		}
	}
	return len(keys)
}
func (t *testTable) Name() string { return "testTable" }

// writer is the write surface a Table and an Engine share; the helpers
// below are the named write forms over its RMW and RMWBatch.
type writer interface {
	RMW(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error)
	RMWBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error)
}

func tryPut(w writer, key, val uint64) (bool, error) {
	_, existed, err := w.RMW(key, val, true, nil)
	return !existed && err == nil, err
}

func getOrPut(w writer, key, val uint64) (uint64, bool, error) {
	return w.RMW(key, val, false, nil)
}

func upsert(w writer, key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := w.RMW(key, 0, false, fn)
	return v, err
}

func putBatch(w writer, keys, vals []uint64) (int, error) {
	return w.RMWBatch(keys, vals, nil, nil, true, nil)
}

func getOrPutBatch(w writer, keys, vals, out []uint64, loaded []bool) (int, error) {
	return w.RMWBatch(keys, vals, out, loaded, false, nil)
}

func upsertBatch(w writer, keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	return w.RMWBatch(keys, nil, nil, nil, false, fn)
}

func testEngine(t *testing.T, shards, capacity int) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:   shards,
		Capacity: capacity,
		GrowAt:   0.8,
		Seed:     7,
		NewTable: newTestTable,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDeadSet(t *testing.T) {
	d := newDeadSet()
	keys := []uint64{0, 1, 7, ^uint64(0), 0x9e3779b97f4a7c15, 42}
	for _, k := range keys {
		if d.has(k) {
			t.Fatalf("empty set claims %d dead", k)
		}
	}
	for _, k := range keys {
		d.add(k)
		d.add(k) // idempotent
	}
	for _, k := range keys {
		if !d.has(k) {
			t.Fatalf("added key %d not found", k)
		}
	}
	if d.has(2) || d.has(43) {
		t.Fatal("false positive on absent key")
	}
	// key 0 lives in the dedicated word, not a slot.
	if d.n != len(keys)-1 {
		t.Fatalf("slot count %d, want %d (key 0 excluded)", d.n, len(keys)-1)
	}
	var nild *deadSet
	if nild.has(5) {
		t.Fatal("nil deadSet claims a key dead")
	}
}

func TestDeadSetNothingDeadSkipsTheProbe(t *testing.T) {
	// While nothing has been marked dead has answers from the counters
	// alone. Plant a key in its slot behind add's back: a probe would
	// find it, the fast path must not look.
	d := newDeadSet()
	k := uint64(42)
	d.slots[(k*deadSetSeedMix)&d.mask] = k
	if d.has(k) {
		t.Fatal("has probed the slots of a set with nothing dead")
	}
	// One real insert (of another key) ends the fast path for good.
	d.add(7)
	if !d.has(7) || !d.has(k) {
		t.Fatal("has kept skipping the probe after an add")
	}
	// Key 0 lives outside the slots and the slot count; it too must end
	// the fast path.
	z := newDeadSet()
	z.add(0)
	if !z.has(0) || z.has(k) {
		t.Fatal("set holding only key 0 answers wrong")
	}
}

func TestDeadSetCapacityFloor(t *testing.T) {
	// A new overlay is the fixed floor, whatever it overlays, and takes
	// half that many keys before full() asks the writer for a larger one.
	d := newDeadSet()
	if got := len(d.slots); got != deadSetFloor || d.mask != deadSetFloor-1 {
		t.Fatalf("new set has %d slots (mask %#x), want the %d-slot floor", got, d.mask, deadSetFloor)
	}
	d.add(0) // key 0 takes no slot
	for k := uint64(1); !d.full(); k++ {
		d.add(k)
	}
	if d.n != deadSetFloor/2 {
		t.Fatalf("full() after %d slot keys, want %d (half load)", d.n, deadSetFloor/2)
	}
}

func TestDeadSetGrownIsACopy(t *testing.T) {
	d := newDeadSet()
	d.add(0)
	for k := uint64(1); !d.full(); k++ {
		d.add(k * deadSetSeedMix)
	}
	old := slices.Clone(d.slots)
	g := d.grown()
	if len(g.slots) != 2*len(d.slots) || g.mask != uint64(len(g.slots)-1) || g.n != d.n || g.zero != 1 {
		t.Fatalf("grown: %d slots, mask %#x, n %d, zero %d from %d slots, n %d", len(g.slots), g.mask, g.n, g.zero, len(d.slots), d.n)
	}
	if g.full() {
		t.Fatal("grown set is full again")
	}
	g.add(12345)
	// The original is what readers of the previous epoch still probe: not
	// one word of it may have moved.
	if !slices.Equal(d.slots, old) || d.has(12345) {
		t.Fatal("growing wrote to the published set")
	}
	for _, k := range old {
		if k != 0 && !g.has(k) {
			t.Fatalf("key %#x lost in the copy", k)
		}
	}
	if !g.has(0) || !g.has(12345) || g.has(7) {
		t.Fatal("grown set answers wrong")
	}
}

func TestPublishOutsideWindowPanics(t *testing.T) {
	e := testEngine(t, 1, 64)
	s := &e.shards[0]
	defer func() {
		if recover() == nil {
			t.Fatal("publish with an even sequence did not panic")
		}
	}()
	e.publish(s, &view{cur: s.view.Load().cur})
}

func TestBirthEpoch(t *testing.T) {
	e := testEngine(t, 4, 256)
	for i := range e.shards {
		v := e.shards[i].view.Load()
		if v == nil {
			t.Fatalf("shard %d has no published view", i)
		}
		if v.gen != 1 {
			t.Fatalf("shard %d birth generation %d, want 1", i, v.gen)
		}
		if v.migrating() || v.dead != nil {
			t.Fatalf("shard %d birth view not quiescent: %+v", i, v)
		}
		if seq := e.shards[i].seq.Load(); seq&1 != 0 {
			t.Fatalf("shard %d sequence left odd (%d) after construction", i, seq)
		}
	}
	if got := e.viewPublishes.Value(); got != 4 {
		t.Fatalf("viewPublishes after construction = %d, want one birth epoch per shard (4)", got)
	}
	if st := e.Stats(); st.ViewPublishes != 4 {
		t.Fatalf("Stats().ViewPublishes = %d, want 4", st.ViewPublishes)
	}
}

func TestViewGenerationAdvancesAcrossMigration(t *testing.T) {
	e := testEngine(t, 1, 64)
	s := &e.shards[0]
	born := s.view.Load().gen
	// Fill past the threshold to start a migration, then drain it. The
	// first keys go in through GetOrPutBatch with its results dropped (out
	// and loaded nil), which the table's batch must accept.
	keys, vals := make([]uint64, 8), make([]uint64, 8)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1)*0x9e3779b97f4a7c15, uint64(i+1)
	}
	if ins, err := getOrPutBatch(e, keys, vals, nil, nil); ins != len(keys) || err != nil {
		t.Fatalf("GetOrPutBatch(nil results) = %d, %v; want %d inserts", ins, err, len(keys))
	}
	for i := uint64(len(keys) + 1); i <= 60; i++ {
		if _, err := tryPut(e, i*0x9e3779b97f4a7c15, i); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Drain() {
		t.Fatal("Drain did not reach idle")
	}
	st := e.Stats()
	if st.MigrationsDone == 0 {
		t.Fatal("fill never migrated")
	}
	// Each migration publishes twice (freeze, promote).
	if got := s.view.Load().gen; got < born+2 {
		t.Fatalf("generation %d after a full migration, want >= %d", got, born+2)
	}
	if st.ViewPublishes < uint64(1+2*st.MigrationsDone) {
		t.Fatalf("ViewPublishes %d < birth + 2 per migration (%d migrations)", st.ViewPublishes, st.MigrationsDone)
	}
}

// growUntilMigrating inserts fresh keys until a shard is mid-resize and
// returns how many it inserted (key i is i*golden, value i).
func growUntilMigrating(t *testing.T, e *Engine) uint64 {
	t.Helper()
	n := uint64(0)
	for e.Stats().Migrating == 0 {
		n++
		if _, err := tryPut(e, n*0x9e3779b97f4a7c15, n); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestRangeMidResizeWalksCarryAndCursor: mid-resize, Range walks the
// successor, then the frozen entries not yet moved — the carry list and
// the table from the migration cursor on, not from its first slot — and
// yields every live key once under its current value: also carried keys
// that are deleted, overwritten or shadowed by the successor's copy of the
// same value, and keys ahead of the cursor that are each of those, or
// dead and back.
func TestRangeMidResizeWalksCarryAndCursor(t *testing.T) {
	const chunk = 4
	e, err := New(Config{Shards: 1, Capacity: 1024, GrowAt: 0.8, Seed: 7, MigrationChunk: chunk, NewTable: newTestTable})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 1..n, and testTable's cursor walks them in that order.
	oracle := map[uint64]uint64{}
	n := uint64(0)
	for e.Stats().Migrating == 0 {
		n++
		if _, err := tryPut(e, n, n); err != nil {
			t.Fatal(err)
		}
		oracle[n] = n
	}
	// Eight mutations, eight steps: the cursor is past key 32, far from all
	// this, and the steps to come are keys 33..36, 37..40, ... 101..104.
	// A GetOrPut of a frozen key copies it into the successor and leaves
	// it live in both tables; a Put of another value marks it dead.
	getOrPut(e, 101, 0) // shadowed, and on the carry list below
	e.Delete(102)       // dead, and on the carry list below
	delete(oracle, 102)
	tryPut(e, 103, 1030) // overwritten, and on the carry list below
	oracle[103] = 1030
	e.Delete(500) // dead, ahead of the cursor
	delete(oracle, 500)
	getOrPut(e, 501, 0)  // shadowed, ahead of the cursor
	tryPut(e, 503, 5030) // overwritten, ahead of the cursor
	oracle[503] = 5030
	e.Delete(502) // dead and back, ahead of the cursor
	tryPut(e, 502, 5020)
	oracle[502] = 5020

	// Every step's first entry is refused from here on: the step parks
	// its chunk on the carry list, and the next one places that and parks
	// its own. Stop with keys 101..104 parked.
	var rates [fault.NumKinds]float64
	rates[fault.Full] = 1
	fault.Arm(fault.Config{Seed: 1, Rates: rates})
	defer fault.Disarm()
	s := &e.shards[0]
	for len(s.carry) == 0 || s.carry[0].k != 101 {
		if s.pos > 101 {
			t.Fatalf("cursor at %d, carry %v: keys 101..104 were never parked together", s.pos, s.carry)
		}
		e.Delete(n + 1) // absent: hosts a step
	}
	if v := s.view.Load(); !v.migrating() || len(s.carry) != chunk || s.pos != 104 {
		t.Fatalf("set-up: migrating %v, carry %v, cursor %d", v.migrating(), s.carry, s.pos)
	}

	seen := map[uint64]bool{}
	e.Range(func(k, v uint64) bool {
		if want, ok := oracle[k]; !ok || v != want || seen[k] {
			t.Fatalf("Range yields %d=%d (seen before: %v), map (%d,%v)", k, v, seen[k], want, ok)
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(oracle) {
		t.Fatalf("Range yields %d keys, map holds %d", len(seen), len(oracle))
	}
	// Stopping early stops: in the successor, on the carry list, in the
	// frozen table.
	for _, stopAt := range []uint64{1, 104, 600} {
		calls, after := 0, 0
		e.Range(func(k, _ uint64) bool {
			calls++
			if k == stopAt {
				after = calls
			}
			return k != stopAt
		})
		if after == 0 || calls != after {
			t.Fatalf("stop at key %d: %d calls, the %dth asked to stop", stopAt, calls, after)
		}
	}
}

// TestMigratingOverwriteMarksFrozenEntryDead: mid-resize, readers ask the
// frozen table first, so a write that gives a frozen-live key another
// value marks its frozen entry dead, and one that stores the value the key
// already holds marks nothing. Put, PutBatch, Upsert and UpsertBatch each
// write keys a step has already copied into the successor and keys still
// only in the frozen table, changing the value and keeping it, while the
// overlay doubles. Every write is read back, and Get, GetBatch, Range and
// Len agree with a map mid-resize and after it.
func TestMigratingOverwriteMarksFrozenEntryDead(t *testing.T) {
	e, err := New(Config{Shards: 1, Capacity: 1024, GrowAt: 0.8, Seed: 7, MigrationChunk: 1, NewTable: newTestTable})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 1..n under ten times themselves; the cursor walks them in that
	// order, one a mutation.
	oracle := map[uint64]uint64{}
	n := uint64(0)
	for e.Stats().Migrating == 0 {
		n++
		if _, err := tryPut(e, n, 10*n); err != nil {
			t.Fatal(err)
		}
		oracle[n] = 10 * n
	}
	s := &e.shards[0]
	// Deletes from the middle fill the overlay to a few keys short of
	// doubling; their steps copy the low keys into the successor.
	for k := n / 2; s.view.Load().dead.n < deadSetFloor/2-8; k++ {
		if !e.Delete(k) {
			t.Fatalf("key %d was not there to delete", k)
		}
		delete(oracle, k)
	}
	slots := len(s.view.Load().dead.slots)

	// upsertTo returns an Upsert callback storing val, which must be handed
	// the key's current value.
	upsertTo := func(k, val uint64) func(uint64, bool) uint64 {
		return func(old uint64, exists bool) uint64 {
			if !exists || old != oracle[k] {
				t.Errorf("Upsert of key %d handed (%d,%v), want (%d,true)", k, old, exists, oracle[k])
			}
			return val
		}
	}
	writers := []struct {
		name  string
		write func(k, val uint64) error
	}{
		{"Put", func(k, val uint64) error { _, err := tryPut(e, k, val); return err }},
		{"PutBatch", func(k, val uint64) error { _, err := putBatch(e, []uint64{k}, []uint64{val}); return err }},
		{"Upsert", func(k, val uint64) error { _, err := upsert(e, k, upsertTo(k, val)); return err }},
		{"UpsertBatch", func(k, val uint64) error {
			fn := upsertTo(k, val)
			_, err := upsertBatch(e, []uint64{k}, func(_ int, old uint64, exists bool) uint64 { return fn(old, exists) })
			return err
		}},
	}
	low, high := uint64(1), n // the next key the steps have copied, and the next they have not
	for round := 0; round < 4; round++ {
		for _, w := range writers {
			for _, copied := range []bool{true, false} {
				for _, changed := range []bool{true, false} {
					k := high
					if copied {
						k, low = low, low+1
					} else {
						high--
					}
					v := s.view.Load()
					if _, inNext := v.next.Get(k); inNext != copied || v.dead.has(k) {
						t.Fatalf("set-up: key %d in the successor %v, dead %v, want %v and false", k, inNext, v.dead.has(k), copied)
					}
					val, marks := oracle[k], 0
					if changed {
						val, marks = val+1, 1
					}
					before := v.dead.n
					if err := w.write(k, val); err != nil {
						t.Fatal(err)
					}
					oracle[k] = val
					if got := s.view.Load().dead.n - before; got != marks {
						t.Fatalf("%s of key %d (in the successor %v) from %d to %d marked %d frozen entries dead, want %d", w.name, k, copied, 10*k, val, got, marks)
					}
					if got, ok := e.Get(k); !ok || got != val {
						t.Fatalf("%s of key %d (in the successor %v) to %d: Get = (%d,%v)", w.name, k, copied, val, got, ok)
					}
				}
			}
		}
	}
	if v := s.view.Load(); !v.migrating() || len(v.dead.slots) != 2*slots {
		t.Fatalf("set-up: migrating %v, overlay of %d slots from %d, want a resize and one doubling", v.migrating(), len(v.dead.slots), slots)
	}

	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	vals, ok := make([]uint64, n), make([]bool, n)
	check := func(when string) {
		t.Helper()
		if e.Len() != len(oracle) {
			t.Fatalf("%s: Len = %d, map holds %d", when, e.Len(), len(oracle))
		}
		if hits := e.GetBatch(keys, vals, ok); hits != len(oracle) {
			t.Fatalf("%s: GetBatch hit %d, map holds %d", when, hits, len(oracle))
		}
		for i, k := range keys {
			want, present := oracle[k]
			if got, gok := e.Get(k); gok != present || got != want {
				t.Fatalf("%s: Get(%d) = (%d,%v), map (%d,%v)", when, k, got, gok, want, present)
			}
			if ok[i] != present || (present && vals[i] != want) {
				t.Fatalf("%s: GetBatch lane of key %d = (%d,%v), map (%d,%v)", when, k, vals[i], ok[i], want, present)
			}
		}
		seen := 0
		e.Range(func(k, v uint64) bool {
			if want, present := oracle[k]; !present || v != want {
				t.Fatalf("%s: Range yields %d=%d, map (%d,%v)", when, k, v, want, present)
			}
			seen++
			return true
		})
		if seen != len(oracle) {
			t.Fatalf("%s: Range yields %d keys, map holds %d", when, seen, len(oracle))
		}
	}
	check("mid-resize")
	if !e.Drain() {
		t.Fatal("Drain did not reach idle")
	}
	check("after the resize")
}

func TestDroppedMidResizeEngineLeaksNothing(t *testing.T) {
	// A resize in flight is an integer and two tables named by the view
	// (that it adds no goroutine is the nogoroutine analyzer's to prove),
	// and an engine dropped in that state — there is no Close to forget —
	// is collected, frozen table included.
	e := testEngine(t, 2, 128)
	n := growUntilMigrating(t, e)
	for i := uint64(1); i <= n; i++ {
		if v, ok := e.Get(i * 0x9e3779b97f4a7c15); !ok || v != i {
			t.Fatalf("key %d mid-resize = (%d,%v)", i, v, ok)
		}
	}
	freed := make(chan struct{})
	for i := range e.shards {
		if v := e.shards[i].view.Load(); v.migrating() {
			runtime.SetFinalizer(v.cur.(*testTable), func(*testTable) { close(freed) })
			break
		}
	}
	e = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			runtime.Gosched()
		}
	}
	t.Fatal("the frozen table of a dropped mid-resize engine was never collected")
}

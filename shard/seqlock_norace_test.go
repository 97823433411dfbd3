//go:build !race

package shard

// Deterministic tests of the optimistic read protocol's retry and
// fallback behavior: the shard's sequence word is held odd by hand (no
// writer — the lock stays free), so a read must burn its full retry
// budget, park on the writer lock, and still return the right answer.
// Build-tagged !race because race builds replace the optimistic path
// with the locked slow path (read_racedetector.go), which neither
// retries nor accounts.

import "testing"

// holdWindowOpen makes s look mid-mutation to optimistic readers while
// leaving the writer lock free, then returns a closer. Test-only: the
// production sequence transitions all live in lockShard/unlockShard.
func holdWindowOpen(s *shardState) func() {
	s.seq.Add(1)
	return func() { s.seq.Add(1) }
}

func TestReadFallbackOnStuckWindow(t *testing.T) {
	e := testEngine(t, 1, 64)
	m := NewMetrics(1)
	e.SetMetrics(m)
	const key, val = 77, 770
	if _, err := e.Put(key, val); err != nil {
		t.Fatal(err)
	}
	s := &e.shards[0]

	reopen := holdWindowOpen(s)
	v, ok := e.Get(key)
	reopen()
	if !ok || v != val {
		t.Fatalf("Get through the fallback = (%d,%v), want (%d,true)", v, ok, val)
	}
	if got := e.readFallbacks.Load(); got != 1 {
		t.Fatalf("readFallbacks = %d, want exactly 1", got)
	}
	if got := e.readRetries.Load(); got != readMaxRetries+1 {
		t.Fatalf("readRetries = %d, want the full budget %d", got, readMaxRetries+1)
	}
	if got := m.ReadFallback.Value(); got != 1 {
		t.Fatalf("ReadFallback counter = %d, want 1", got)
	}
	if got := m.ReadRetry.Value(); got != readMaxRetries+1 {
		t.Fatalf("ReadRetry counter = %d, want %d", got, readMaxRetries+1)
	}

	// Window closed: the next read validates first try and accounts
	// nothing.
	if v, ok := e.Get(key); !ok || v != val {
		t.Fatalf("Get after reopen = (%d,%v)", v, ok)
	}
	if got := e.readFallbacks.Load(); got != 1 {
		t.Fatalf("validated read bumped readFallbacks to %d", got)
	}
	if got := e.readRetries.Load(); got != readMaxRetries+1 {
		t.Fatalf("validated read bumped readRetries to %d", got)
	}
}

func TestReadRangeFallbackOnStuckWindow(t *testing.T) {
	e := testEngine(t, 1, 128)
	keys := []uint64{3, 9, 27, 81}
	for _, k := range keys {
		if _, err := e.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]uint64, len(keys))
	ok := make([]bool, len(keys))

	reopen := holdWindowOpen(&e.shards[0])
	hits := e.GetBatch(keys, vals, ok)
	reopen()
	if hits != len(keys) {
		t.Fatalf("GetBatch through the fallback hit %d of %d", hits, len(keys))
	}
	for i, k := range keys {
		if !ok[i] || vals[i] != k*10 {
			t.Fatalf("lane %d = (%d,%v), want (%d,true)", i, vals[i], ok[i], k*10)
		}
	}
	if got := e.readFallbacks.Load(); got != 1 {
		t.Fatalf("readFallbacks = %d, want 1 (one validation per shard range, not per key)", got)
	}
}

func TestReadSnapshotFallbackOnStuckWindow(t *testing.T) {
	e := testEngine(t, 1, 64)
	if _, err := e.Put(5, 50); err != nil {
		t.Fatal(err)
	}
	reopen := holdWindowOpen(&e.shards[0])
	st := e.Stats()
	reopen()
	if st.Len != 1 || st.Capacity == 0 {
		t.Fatalf("Stats through the fallback: %+v", st)
	}
	if e.readFallbacks.Load() == 0 {
		t.Fatal("snapshot read never fell back despite the stuck window")
	}
}

func TestReadFallbackWithoutMetrics(t *testing.T) {
	// No Metrics attached: the accounting path must tolerate the nil
	// registry while still counting into the engine totals.
	e := testEngine(t, 1, 64)
	const key, val = 11, 1100
	if _, err := e.Put(key, val); err != nil {
		t.Fatal(err)
	}
	reopen := holdWindowOpen(&e.shards[0])
	if v, ok := e.Get(key); !ok || v != val {
		t.Fatalf("Get with nil metrics through fallback = (%d,%v)", v, ok)
	}
	reopen()
	if got := e.readFallbacks.Load(); got != 1 {
		t.Fatalf("readFallbacks = %d, want 1", got)
	}
}

// batchHookTable is a testTable whose GetBatch records into a batchLog
// the engine's tables share, so a test can tell the batched lookup from
// the scalar chain.
type batchHookTable struct {
	*testTable
	*batchLog
}

// batchLog counts GetBatch calls and the keys they were handed;
// onGetBatch lets a test cross the reader's window from inside it.
type batchLog struct {
	calls, keys int
	onGetBatch  func()
}

func (h batchHookTable) GetBatch(keys, vals []uint64, ok []bool) int {
	h.calls++
	h.keys += len(keys)
	if h.onGetBatch != nil {
		h.onGetBatch()
	}
	return h.testTable.GetBatch(keys, vals, ok)
}

// TestReadRangeTouchRetryAndFallback: a steady-state shard's staged range
// is ONE call of its table's GetBatch per attempt — touch pass and walks,
// the whole pipeline — inside the validate / retry / lock-fallback
// protocol; a migrating shard never calls it.
func TestReadRangeTouchRetryAndFallback(t *testing.T) {
	bl := &batchLog{}
	e, err := New(Config{
		Shards: 1, Capacity: 1024, GrowAt: 0.8, Seed: 7,
		NewTable: func(capacity int, seed uint64) (Table, error) {
			inner, err := newTestTable(capacity, seed)
			return batchHookTable{inner.(*testTable), bl}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &e.shards[0]
	const n = 150
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
		if _, err := e.Put(keys[i], keys[i]*10); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]uint64, n)
	ok := make([]bool, n)
	check := func(when string, wantCalls int) {
		t.Helper()
		bl.calls, bl.keys = 0, 0
		if hits := e.GetBatch(keys, vals, ok); hits != n {
			t.Fatalf("%s: GetBatch hit %d of %d", when, hits, n)
		}
		for i, k := range keys {
			if !ok[i] || vals[i] != k*10 {
				t.Fatalf("%s: lane %d = (%d,%v), want (%d,true)", when, i, vals[i], ok[i], k*10)
			}
			vals[i], ok[i] = 0, false
		}
		if bl.calls != wantCalls || bl.keys != wantCalls*n {
			t.Fatalf("%s: table GetBatch called %d times with %d keys, want %d calls of the whole %d-key range",
				when, bl.calls, bl.keys, wantCalls, n)
		}
	}

	check("quiet", 1)
	if e.readRetries.Load() != 0 || e.readFallbacks.Load() != 0 {
		t.Fatal("quiet read retried")
	}

	// A writer's whole window passes during each of the first three
	// attempts: each is discarded and the range looked up again; the
	// fourth validates, with the same answers.
	crossings := 0
	bl.onGetBatch = func() {
		if crossings < 3 {
			crossings++
			s.seq.Add(2)
		}
	}
	check("three torn attempts", 4)
	if got := e.readRetries.Load(); got != 3 {
		t.Fatalf("readRetries = %d, want 3", got)
	}
	if e.readFallbacks.Load() != 0 {
		t.Fatal("fell back with retry budget to spare")
	}

	// Every attempt torn: the budget runs out and the locked path answers
	// — with the same batched lookup, now behind the writer lock.
	bl.onGetBatch = func() { s.seq.Add(2) }
	check("every attempt torn", readMaxRetries+2)
	if got := e.readFallbacks.Load(); got != 1 {
		t.Fatalf("readFallbacks = %d, want 1", got)
	}

	// A migrating view keeps the scalar successor→dead→frozen chain.
	bl.onGetBatch = nil
	for k := uint64(n + 1); e.Stats().Migrating == 0; k++ {
		if _, err := e.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	check("migrating", 0)
}

// getHookTable is a testTable whose next Get first runs a one-shot hook
// the engine's tables share: a test crosses a reader's window from inside
// its probe with it.
type getHookTable struct {
	*testTable
	onGet *func()
}

func (h getHookTable) Get(key uint64) (uint64, bool) {
	if f := *h.onGet; f != nil {
		*h.onGet = nil
		f()
	}
	return h.testTable.Get(key)
}

func TestReadHeldOpenAcrossOverlayDoubling(t *testing.T) {
	// The overlay doubles by republication: the writer leaves the published
	// set as it is and publishes a view naming a larger copy. A reader that
	// loaded the old view before the doubling keeps probing the old set —
	// safely, it never moves — and concludes from it what is no longer
	// true; validation discards that and the retry reads the new set.
	var onGet func()
	e, err := New(Config{
		Shards: 1, Capacity: 2048, GrowAt: 0.8, Seed: 7,
		MigrationChunk: 1, // one entry per step: the resize outlasts the deletes
		NewTable: func(capacity int, seed uint64) (Table, error) {
			inner, err := newTestTable(capacity, seed)
			return getHookTable{inner.(*testTable), &onGet}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &e.shards[0]
	n := growUntilMigrating(t, e)
	key := func(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }
	for i := uint64(1); !s.view.Load().dead.full(); i++ {
		if i >= n || !e.Delete(key(i)) {
			t.Fatalf("could not fill the overlay: delete %d of %d", i, n)
		}
	}
	before := s.view.Load()
	if !before.migrating() || before.dead.n != deadSetFloor/2 {
		t.Fatalf("set-up: migrating %v, %d dead keys, want a resize with the overlay at half load", before.migrating(), before.dead.n)
	}
	publishes := e.viewPublishes.Load()

	// The reader is inside its probe of the old view (at the successor's
	// Get) when a whole writer window passes: the delete of the very key
	// it is reading, which is the delete that has to double the overlay.
	victim := key(n)
	onGet = func() {
		if !e.Delete(victim) {
			t.Error("the victim was not there to delete")
		}
	}
	if v, ok := e.Get(victim); ok {
		t.Fatalf("Get(victim) = (%d,true): the reader kept what it concluded from the overlay of the epoch before", v)
	}
	if got := e.readRetries.Load(); got != 1 {
		t.Fatalf("readRetries = %d, want the one discarded attempt", got)
	}
	if e.readFallbacks.Load() != 0 {
		t.Fatal("the reader fell back to the lock")
	}

	after := s.view.Load()
	if after.dead == before.dead || len(after.dead.slots) != 2*len(before.dead.slots) {
		t.Fatalf("overlay has %d slots after the delete past half load of %d", len(after.dead.slots), len(before.dead.slots))
	}
	if after.gen != before.gen+1 || e.viewPublishes.Load() != publishes+1 {
		t.Fatalf("the doubling published %d views (gen %d → %d), want exactly one", e.viewPublishes.Load()-publishes, before.gen, after.gen)
	}
	if after.cur != before.cur || after.next != before.next || after.degraded != before.degraded {
		t.Fatal("the doubling's view changed more than the overlay")
	}
	if before.dead.has(victim) || before.dead.n != deadSetFloor/2 {
		t.Fatal("the published set of the epoch before was written to")
	}
	if !after.dead.has(victim) || after.dead.n != deadSetFloor/2+1 {
		t.Fatalf("new overlay: has(victim) %v, %d keys", after.dead.has(victim), after.dead.n)
	}
	for i := uint64(1); i <= uint64(deadSetFloor/2); i++ {
		if !after.dead.has(key(i)) {
			t.Fatalf("dead key %d lost in the doubling", i)
		}
		if _, ok := e.Get(key(i)); ok {
			t.Fatalf("dead key %d readable after the doubling", i)
		}
	}
}

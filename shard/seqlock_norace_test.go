//go:build !race

package shard

// Deterministic tests of the optimistic read protocol's retry and
// fallback behavior: the shard's sequence word is held odd by hand (no
// writer — the lock stays free), so a read must burn its full retry
// budget, take the writer lock, and still return the right answer; a
// table whose GetBatch is hooked crosses a staged range's window from
// inside its probe. Build-tagged !race because race builds replace the
// optimistic path with the locked slow path (read_racedetector.go), which
// neither retries nor accounts.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/obs"
)

// holdWindowOpen makes s look mid-mutation to optimistic readers while
// leaving the writer lock free, then returns a closer. Test-only: the
// production sequence transitions all live in lockShard/unlockShard.
func holdWindowOpen(s *shardState) func() {
	s.seq.Add(1)
	return func() { s.seq.Add(1) }
}

func TestReadFallbackOnStuckWindow(t *testing.T) {
	e := testEngine(t, 1, 64)
	e.SetMetrics(NewMetrics(1))
	const key, val = 77, 770
	if _, err := tryPut(e, key, val); err != nil {
		t.Fatal(err)
	}
	s := &e.shards[0]

	reopen := holdWindowOpen(s)
	v, ok := e.Get(key)
	reopen()
	if !ok || v != val {
		t.Fatalf("Get through the fallback = (%d,%v), want (%d,true)", v, ok, val)
	}
	if got := e.readFallbacks.Value(); got != 1 {
		t.Fatalf("readFallbacks = %d, want exactly 1", got)
	}
	if got := e.readRetries.Value(); got != readMaxRetries+1 {
		t.Fatalf("readRetries = %d, want the full budget %d", got, readMaxRetries+1)
	}
	r := obs.NewRegistry()
	e.Register(r, "")
	var text strings.Builder
	r.WriteText(&text)
	for _, line := range []string{"shard_read_fallbacks_total 1\n", fmt.Sprintf("shard_read_retries_total %d\n", readMaxRetries+1)} {
		if !strings.Contains(text.String(), line) {
			t.Errorf("exposition does not carry %q:\n%s", line, text.String())
		}
	}

	// Window closed: the next read validates first try and accounts
	// nothing.
	if v, ok := e.Get(key); !ok || v != val {
		t.Fatalf("Get after reopen = (%d,%v)", v, ok)
	}
	if got := e.readFallbacks.Value(); got != 1 {
		t.Fatalf("validated read bumped readFallbacks to %d", got)
	}
	if got := e.readRetries.Value(); got != readMaxRetries+1 {
		t.Fatalf("validated read bumped readRetries to %d", got)
	}
}

func TestReadRangeFallbackOnStuckWindow(t *testing.T) {
	e := testEngine(t, 1, 128)
	keys := []uint64{3, 9, 27, 81}
	for _, k := range keys {
		if _, err := tryPut(e, k, k*10); err != nil {
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
	if got := e.readFallbacks.Value(); got != 1 {
		t.Fatalf("readFallbacks = %d, want 1 (one validation per shard range, not per key)", got)
	}
}

func TestReadSnapshotFallbackOnStuckWindow(t *testing.T) {
	e := testEngine(t, 1, 64)
	if _, err := tryPut(e, 5, 50); err != nil {
		t.Fatal(err)
	}
	reopen := holdWindowOpen(&e.shards[0])
	st := e.Stats()
	reopen()
	if st.Len != 1 || st.Capacity == 0 {
		t.Fatalf("Stats through the fallback: %+v", st)
	}
	if e.readFallbacks.Value() == 0 {
		t.Fatal("snapshot read never fell back despite the stuck window")
	}
}

func TestReadFallbackWithoutMetrics(t *testing.T) {
	// No Metrics attached: the engine's own counters count all the same.
	e := testEngine(t, 1, 64)
	const key, val = 11, 1100
	if _, err := tryPut(e, key, val); err != nil {
		t.Fatal(err)
	}
	reopen := holdWindowOpen(&e.shards[0])
	if v, ok := e.Get(key); !ok || v != val {
		t.Fatalf("Get with nil metrics through fallback = (%d,%v)", v, ok)
	}
	reopen()
	if got := e.readFallbacks.Value(); got != 1 {
		t.Fatalf("readFallbacks = %d, want 1", got)
	}
}

// batchHookTable is a testTable whose GetBatch records into a batchLog
// the engine's tables share, so a test can tell the batched lookup from
// the scalar chain and cross the reader's window from inside it.
type batchHookTable struct {
	*testTable
	*batchLog
}

// batchLog lists the length of every GetBatch call in order; before and
// after run around the call-th lookup (counting from 0), both inside the
// reader's unvalidated window.
type batchLog struct {
	calls         []int
	before, after func(call int)
}

func (h batchHookTable) GetBatch(keys, vals []uint64, ok []bool) int {
	call := len(h.calls)
	h.calls = append(h.calls, len(keys))
	if h.before != nil {
		h.before(call)
	}
	hits := h.testTable.GetBatch(keys, vals, ok)
	if h.after != nil {
		h.after(call)
	}
	return hits
}

// hookedChunk is a hookedEngine's migration step, small enough that ten
// steps leave most of a few hundred keys behind; hookedDead is the first
// of the ten keys midResize deletes.
const (
	hookedChunk = 20
	hookedDead  = 300
)

// hookedEngine builds a one-shard engine over batchHookTables sharing one
// log and stores keys 1..n under ten times themselves.
func hookedEngine(t *testing.T, n int) (*Engine, *batchLog, []uint64) {
	t.Helper()
	bl := &batchLog{}
	e, err := New(Config{
		Shards: 1, Capacity: 4 * n, GrowAt: 0.8, Seed: 7, MigrationChunk: hookedChunk,
		NewTable: func(capacity int, seed uint64) (Table, error) {
			inner, err := newTestTable(capacity, seed)
			return batchHookTable{inner.(*testTable), bl}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
		if _, err := tryPut(e, keys[i], keys[i]*10); err != nil {
			t.Fatal(err)
		}
	}
	return e, bl, keys
}

// midResize puts a hookedEngine's shard into a resize and deletes keys
// hookedDead..hookedDead+9 from it: ten dead keys, and ten steps, which moved keys 1..200
// into the successor (testTable walks in key order); the rest are only in
// the frozen table. The log is cleared. It returns what one lookup of keys
// 1..n costs: the frozen table asked for the whole range, which it holds,
// and the successor for the ten lanes the overlay marks dead.
func midResize(t *testing.T, e *Engine, bl *batchLog, n int) (perAttempt []int) {
	t.Helper()
	for k := uint64(n + 1); e.Stats().Migrating == 0; k++ {
		if _, err := tryPut(e, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(hookedDead); k < hookedDead+10; k++ {
		if !e.Delete(k) {
			t.Fatalf("key %d was not there to delete", k)
		}
	}
	v := e.shards[0].view.Load()
	if !v.migrating() || v.next.Len() != 10*hookedChunk || v.dead.n != 10 {
		t.Fatalf("set-up: migrating %v, %d keys in the successor, %d dead, want a resize with %d and 10", v.migrating(), v.next.Len(), v.dead.n, 10*hookedChunk)
	}
	bl.calls = nil
	return []int{n, 10}
}

// TestReadRangeTouchRetryAndFallback: a shard's staged range is its
// tables' GetBatch — touch pass and walks, the whole pipeline — inside the
// validate / re-probe / lock-fallback protocol: a torn probe's answers are
// thrown away, an open window is not probed into, a range that has
// discarded its budget is read under the lock. A steady-state shard makes
// ONE call per attempt; a migrating shard asks the frozen table for the
// whole range, then the successor for the lanes the frozen table missed or
// the overlay marks dead, readStride of them a call — and nothing when the
// frozen table answered every lane.
func TestReadRangeTouchRetryAndFallback(t *testing.T) {
	const n = 600
	vals := make([]uint64, n)
	ok := make([]bool, n)
	// absent is where the keys nothing stored begin.
	const absent = 1 << 20
	// read runs one GetBatch over keys and fails unless every lane holds
	// what was stored under the key, ten times the key (nothing for the
	// dead keys of midResize, nor from absent on), and the tables saw
	// exactly the lookups perAttempt lists, attempts times over.
	read := func(when string, e *Engine, bl *batchLog, keys []uint64, dead int, perAttempt []int, attempts int) {
		t.Helper()
		hits, present := e.GetBatch(keys, vals, ok), 0
		for i, k := range keys {
			stored := k < absent && !(dead > 0 && k >= hookedDead && k < hookedDead+10)
			if ok[i] != stored || (ok[i] && vals[i] != k*10) {
				t.Fatalf("%s: lane %d (key %d) = (%d,%v), want (%d,%v)", when, i, k, vals[i], ok[i], k*10, stored)
			}
			if stored {
				present++
			}
		}
		if hits != present {
			t.Fatalf("%s: hit %d of %d, want %d", when, hits, len(keys), present)
		}
		var want []int
		for range attempts {
			want = append(want, perAttempt...)
		}
		if !slices.Equal(bl.calls, want) {
			t.Fatalf("%s: GetBatch calls of %v keys, want %v", when, bl.calls, want)
		}
	}

	for _, migrating := range []bool{false, true} {
		// build hands every case a fresh engine, mid-resize or not, and
		// what one attempt at its keys costs there.
		build := func() (e *Engine, bl *batchLog, keys []uint64, dead int, perAttempt []int) {
			e, bl, keys = hookedEngine(t, n)
			if migrating {
				return e, bl, keys, 10, midResize(t, e, bl, n)
			}
			return e, bl, keys, 0, []int{n}
		}
		name := func(when string) string {
			if migrating {
				return when + ", mid-resize"
			}
			return when
		}

		{
			e, bl, keys, dead, perAttempt := build()
			read(name("quiet"), e, bl, keys, dead, perAttempt, 1)
			if e.readRetries.Value() != 0 || e.readFallbacks.Value() != 0 {
				t.Fatal("quiet read retried")
			}
			if migrating {
				// Keys the steps moved are in both tables: the frozen table
				// answers them all and the successor is not asked.
				bl.calls = nil
				moved := keys[:10*hookedChunk]
				read("all in the frozen table", e, bl, moved, 0, []int{len(moved)}, 1)
				// Keys inserted since the freeze, and keys never inserted:
				// the frozen table misses every lane, and the successor is
				// asked about them, readStride a call.
				var fresh []uint64
				for k := uint64(10 * n); k < 10*n+20; k++ {
					if _, err := tryPut(e, k, k*10); err != nil {
						t.Fatal(err)
					}
					fresh = append(fresh, k)
				}
				for k := uint64(absent); len(fresh) < readStride+44; k++ {
					fresh = append(fresh, k)
				}
				if !e.shards[0].view.Load().migrating() {
					t.Fatal("the resize ended under the inserts")
				}
				bl.calls = nil
				read("only in the successor", e, bl, fresh, 0, []int{len(fresh), readStride, 44}, 1)
			}
		}

		{
			// A writer's whole window passes during the first lookup, which
			// reads the values half-rewritten: the reader must throw those
			// answers away and look the range up again.
			e, bl, keys, dead, perAttempt := build()
			s := &e.shards[0]
			v := s.view.Load()
			tabs := []*testTable{v.cur.(batchHookTable).testTable}
			if migrating {
				tabs = append(tabs, v.next.(batchHookTable).testTable)
			}
			rewrite := func(call int, add uint64) {
				if call == 0 {
					s.seq.Add(1)
					for _, tab := range tabs {
						for k := range tab.m {
							tab.m[k] = k*10 + add
						}
					}
				}
			}
			bl.before = func(call int) { rewrite(call, 1) }
			bl.after = func(call int) { rewrite(call, 0) }
			read(name("torn once"), e, bl, keys, dead, perAttempt, 2)
			if got := e.readRetries.Value(); got != 1 {
				t.Fatalf("readRetries = %d, want the one discarded probe", got)
			}
			if e.readFallbacks.Value() != 0 {
				t.Fatal("fell back with budget to spare")
			}
		}

		{
			// A writer's window crosses every probe made without the lock:
			// the budget is spent and the locked path answers — with the
			// same batched lookups, now behind the writer lock.
			e, bl, keys, dead, perAttempt := build()
			s := &e.shards[0]
			bl.before = func(int) {
				if s.mu.TryLock() {
					s.mu.Unlock()
					s.seq.Add(2)
				}
			}
			read(name("budget spent"), e, bl, keys, dead, perAttempt, readRangeDiscards+1)
			if got := e.readFallbacks.Value(); got != 1 {
				t.Fatalf("readFallbacks = %d, want 1", got)
			}
			if got := e.readRetries.Value(); got != readRangeDiscards {
				t.Fatalf("readRetries = %d, want the budget %d", got, readRangeDiscards)
			}
		}

		{
			// A window that stays open is watched, not probed: nothing is
			// discarded, and the one attempt is the locked one.
			e, bl, keys, dead, perAttempt := build()
			closeWindow := holdWindowOpen(&e.shards[0])
			read(name("window stays open"), e, bl, keys, dead, perAttempt, 1)
			closeWindow()
			if e.readRetries.Value() != 0 || e.readFallbacks.Value() != 1 {
				t.Fatalf("window stays open: %d probes discarded, %d fallbacks, want 0 and 1", e.readRetries.Value(), e.readFallbacks.Value())
			}
		}
	}
}

// TestReadRangeFollowsAClosingWindow: a range that arrives at an open
// window waits for it to close and is then read without the lock.
func TestReadRangeFollowsAClosingWindow(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a reader can only watch a writer that runs beside it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 600
	vals := make([]uint64, n)
	ok := make([]bool, n)
	// The writer closes its window a quarter of the watch after the
	// reader set out: well inside the watch, and long after the reader,
	// which needs well under a microsecond to route its range, met the
	// window open. A noisy machine may take the writer's core away for
	// longer than the whole watch, and a reader then rightly takes the
	// lock, so a trial counts only if the writer measured its close
	// within half the watch. One counted trial must get through without
	// the lock; a reader that did not watch never would.
	fallbacks := 0        // counted trials that took the lock
	var latencies []int64 // ns from the reader setting out to the close, every trial
	giveUp := time.Now().Add(2 * time.Second)
	for trial := 1; ; trial++ {
		e, _, keys := hookedEngine(t, n)
		closeWindow := holdWindowOpen(&e.shards[0])
		// The writer has a P of its own, and says so, before the reader
		// sets out.
		var writing, reading atomic.Bool
		var closedAt int64
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			writing.Store(true)
			for !reading.Load() {
			}
			for end := obs.Now() + windowWatchNanos/4; obs.Now() < end; {
			}
			closeWindow()
			closedAt = obs.Now()
		}()
		for !writing.Load() {
			runtime.Gosched()
		}
		setOut := obs.Now()
		reading.Store(true)
		hits := e.GetBatch(keys, vals, ok)
		<-closed
		if hits != n {
			t.Fatalf("hit %d of %d", hits, n)
		}
		latency := closedAt - setOut
		latencies = append(latencies, latency)
		if latency <= windowWatchNanos/2 {
			giveUp = time.Now().Add(2 * time.Second)
			if e.readFallbacks.Value() == 0 {
				if got := e.readRetries.Value(); got != 0 {
					t.Fatalf("%d probes discarded, want none: an open window is not probed into", got)
				}
				return
			}
			fallbacks++
			if fallbacks == 20 {
				t.Fatalf("%d readers behind a window closed within %d ns all took the lock; close latencies (ns): %v",
					fallbacks, windowWatchNanos/2, latencies)
			}
		}
		if time.Now().After(giveUp) {
			t.Fatalf("no window closed within %d ns of its reader for 2 s (%d trials, %d counted before); close latencies (ns): %v",
				windowWatchNanos/2, trial, fallbacks, latencies)
		}
		time.Sleep(time.Duration(min(trial, 20)) * time.Millisecond)
	}
}

// getHookTable is a testTable whose next Get first runs a one-shot hook
// the engine's tables share: a test crosses a reader's window from inside
// its probe with it.
type getHookTable struct {
	*testTable
	onGet *func()
}

func (h getHookTable) hook() {
	if f := *h.onGet; f != nil {
		*h.onGet = nil
		f()
	}
}

func (h getHookTable) Get(key uint64) (uint64, bool) {
	h.hook()
	return h.testTable.Get(key)
}

func (h getHookTable) GetBatch(keys, vals []uint64, ok []bool) int {
	h.hook()
	return h.testTable.GetBatch(keys, vals, ok)
}

func TestReadHeldOpenAcrossOverlayDoubling(t *testing.T) {
	// A Get and a one-key GetBatch alike: the batched read asks the frozen
	// table first too, and consults the overlay for what it found.
	t.Run("Get", func(t *testing.T) {
		readHeldOpenAcrossOverlayDoubling(t, func(e *Engine, k uint64) (uint64, bool) { return e.Get(k) })
	})
	t.Run("GetBatch", func(t *testing.T) {
		readHeldOpenAcrossOverlayDoubling(t, func(e *Engine, k uint64) (uint64, bool) {
			var v [1]uint64
			var ok [1]bool
			e.GetBatch([]uint64{k}, v[:], ok[:])
			return v[0], ok[0]
		})
	})
}

func readHeldOpenAcrossOverlayDoubling(t *testing.T, get func(e *Engine, k uint64) (uint64, bool)) {
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
	publishes := e.viewPublishes.Value()

	// The reader is inside its probe of the old view (at the frozen table's
	// lookup) when a whole writer window passes: the delete of the very key
	// it is reading, which is the delete that has to double the overlay.
	victim := key(n)
	onGet = func() {
		if !e.Delete(victim) {
			t.Error("the victim was not there to delete")
		}
	}
	if v, ok := get(e, victim); ok {
		t.Fatalf("Get(victim) = (%d,true): the reader kept what it concluded from the overlay of the epoch before", v)
	}
	if got := e.readRetries.Value(); got != 1 {
		t.Fatalf("readRetries = %d, want the one discarded attempt", got)
	}
	if e.readFallbacks.Value() != 0 {
		t.Fatal("the reader fell back to the lock")
	}

	after := s.view.Load()
	if after.dead == before.dead || len(after.dead.slots) != 2*len(before.dead.slots) {
		t.Fatalf("overlay has %d slots after the delete past half load of %d", len(after.dead.slots), len(before.dead.slots))
	}
	if after.gen != before.gen+1 || e.viewPublishes.Value() != publishes+1 {
		t.Fatalf("the doubling published %d views (gen %d → %d), want exactly one", e.viewPublishes.Value()-publishes, before.gen, after.gen)
	}
	if after.cur != before.cur || after.next != before.next {
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
		if _, ok := get(e, key(i)); ok {
			t.Fatalf("dead key %d readable after the doubling", i)
		}
	}
}

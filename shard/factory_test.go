package shard_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/shard"
	"repro/table"
)

// errOutOfMemory is flakyAllocator's refusal.
var errOutOfMemory = errors.New("allocator out of memory")

// flakyAllocator builds a shard.Config whose NewTable hook fails (after
// engine construction) while *fail is true — the deterministic stand-in
// for a caller's factory that can refuse.
func flakyAllocator(capacity int, fail *bool) shard.Config {
	return shard.Config{
		Shards: 1, Capacity: capacity, GrowAt: 0.85, Seed: 11,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			if *fail {
				return nil, fmt.Errorf("%d slots: %w", capacity, errOutOfMemory)
			}
			return table.New(table.SchemeLP, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	}
}

// TestFailingFactory is the factory-error contract: a shard whose
// successor cannot be allocated stays steady and keeps serving. Inserts
// land past the growth threshold until the table itself refuses one, and
// that refusal reports both the table's ErrFull and the factory's error.
// Once the factory recovers, the next insert begins the migration that
// Drain finishes, and the engine holds exactly what a map oracle holds.
func TestFailingFactory(t *testing.T) {
	fail := false
	cfg := flakyAllocator(64, &fail)
	cfg.MigrationChunk = 8 // several steps for Drain to take
	e := shard.MustNew(cfg)
	fail = true

	oracle := map[uint64]uint64{}
	check := func(when string) {
		t.Helper()
		if e.Len() != len(oracle) {
			t.Fatalf("%s: Len = %d, oracle %d", when, e.Len(), len(oracle))
		}
		for k, v := range oracle {
			if got, ok := e.Get(k); !ok || got != v {
				t.Fatalf("%s: Get(%d) = (%d,%v), oracle %d", when, k, got, ok, v)
			}
		}
		seen := 0
		for k, v := range e.All() {
			if want, ok := oracle[k]; !ok || v != want {
				t.Fatalf("%s: All() yielded (%d,%d), oracle (%d,%v)", when, k, v, want, ok)
			}
			seen++
		}
		if seen != len(oracle) {
			t.Fatalf("%s: All() yielded %d entries, oracle %d", when, seen, len(oracle))
		}
	}
	refused := func(err error) {
		t.Helper()
		var fe *table.FullError
		if !errors.Is(err, table.ErrFull) || !errors.As(err, &fe) || !errors.Is(err, errOutOfMemory) {
			t.Fatalf("refusal %v: want table.ErrFull, a *table.FullError and the factory's error", err)
		}
	}

	// Fill to the brim: every growth attempt from the 85% threshold on
	// fails and is dropped, and inserts keep landing until the table
	// refuses one.
	var refusal error
	for k := uint64(1); k <= 1000; k++ {
		if _, err := tryPut(e, k, k*3); err != nil {
			refusal = err
			break
		}
		oracle[k] = k * 3
	}
	if refusal == nil {
		t.Fatal("no insert was ever refused with a failing factory")
	}
	if len(oracle) < 55 {
		t.Fatalf("refused after %d inserts, want the table filled past the 85%% threshold first", len(oracle))
	}
	refused(refusal)
	if st := e.Stats(); st.Migrating != 0 || st.MigrationsStarted != 0 {
		t.Fatalf("stats %+v: a failed growth must leave the shard steady", st)
	}
	check("refused")

	// Reads, updates and deletes keep working; a freed slot takes one
	// insert again, and a fresh insert with no room is refused the same way.
	if _, err := tryPut(e, 1, 1000); err != nil {
		t.Fatalf("in-place update: %v", err)
	}
	oracle[1] = 1000
	nv, err := upsert(e, 2, func(old uint64, exists bool) uint64 {
		if !exists || old != oracle[2] {
			t.Errorf("Upsert(2) saw (%d,%v), oracle %d", old, exists, oracle[2])
		}
		return old + 1
	})
	if err != nil {
		t.Fatalf("upsert of an existing key: %v", err)
	}
	oracle[2] = nv
	if v, loaded, err := getOrPut(e, 3, 999); err != nil || !loaded || v != oracle[3] {
		t.Fatalf("GetOrPut(existing) = (%d,%v,%v), oracle %d", v, loaded, err, oracle[3])
	}
	if !e.Delete(4) || e.Delete(4) || e.Delete(5000) {
		t.Fatal("Delete answers differ from the oracle's")
	}
	delete(oracle, 4)
	check("updated")
	if _, err := tryPut(e, 4, 40); err != nil {
		t.Fatalf("insert into a freed slot: %v", err)
	}
	oracle[4] = 40
	_, err = tryPut(e, 5000, 1)
	refused(err)
	check("refused again")

	// The factory recovers: the next insert grows the shard, and Drain
	// finishes the migration.
	fail = false
	if _, err := tryPut(e, 5000, 5000); err != nil {
		t.Fatalf("insert after the factory recovered: %v", err)
	}
	oracle[5000] = 5000
	if st := e.Stats(); st.Migrating != 1 || st.MigrationsStarted != 1 {
		t.Fatalf("stats %+v: the insert should have begun one migration", st)
	}
	if !e.Drain() {
		t.Fatalf("Drain() = false with a working factory: %+v", e.Stats())
	}
	if st := e.Stats(); st.Migrating != 0 || st.MigrationsDone != 1 {
		t.Fatalf("stats %+v after Drain, want one finished migration", st)
	}
	check("drained")
}

// TestFailingFactoryRebuild: a successor that refuses entries forces a
// rebuild, and a rebuild the factory cannot allocate keeps the refused
// entries on the carry list: the shard stays migrating, every key stays
// readable, and Drain reports false. Once the factory recovers, Drain
// rebuilds and reports true.
func TestFailingFactoryRebuild(t *testing.T) {
	fail, small := false, false
	cfg := flakyAllocator(64, &fail)
	cfg.MigrationChunk = 8
	newTable := cfg.NewTable
	cfg.NewTable = func(capacity int, seed uint64) (shard.Table, error) {
		if small {
			// A successor far smaller than asked stands in for one that
			// refuses entries below any threshold (a Cuckoo table's failed
			// kick chain).
			capacity = 4
		}
		return newTable(capacity, seed)
	}
	e := shard.MustNew(cfg)

	oracle := map[uint64]uint64{}
	small = true
	for k := uint64(1); e.Stats().Migrating == 0; k++ {
		if _, err := tryPut(e, k, k*3); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		oracle[k] = k * 3
	}
	small, fail = false, true
	if e.Drain() {
		t.Fatalf("Drain() = true with a refusing successor and a failing factory: %+v", e.Stats())
	}
	if st := e.Stats(); st.Migrating != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats %+v, want the shard still migrating and no rebuild", st)
	}
	for k, v := range oracle {
		if got, ok := e.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = (%d,%v) with the carry list parked, oracle %d", k, got, ok, v)
		}
	}

	fail = false
	if !e.Drain() {
		t.Fatalf("Drain() = false with a working factory: %+v", e.Stats())
	}
	if st := e.Stats(); st.Migrating != 0 || st.Rebuilds != 1 || st.Len != len(oracle) {
		t.Fatalf("stats %+v, want one rebuild holding the oracle's %d keys", st, len(oracle))
	}
	for k, v := range oracle {
		if got, ok := e.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = (%d,%v) after the rebuild, oracle %d", k, got, ok, v)
		}
	}
}

// TestBatchErrFullPropagation: with growth disabled, a genuinely full
// shard refuses the rest of a batch with the typed *table.FullError
// chain through every batched entry point, and the pairs applied before
// the refusal remain.
func TestBatchErrFullPropagation(t *testing.T) {
	keys := make([]uint64, 256)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = uint64(i) + 1
		vals[i] = uint64(i) * 10
	}
	newFixed := func() *shard.Engine {
		return shard.MustNew(shard.Config{
			Shards: 2, Capacity: 64, GrowAt: 0, Seed: 21,
			NewTable: func(capacity int, seed uint64) (shard.Table, error) {
				return table.New(table.SchemeLP, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
			},
		})
	}

	e := newFixed()
	ins, err := putBatch(e, keys, vals)
	var fe *table.FullError
	if !errors.As(err, &fe) || !errors.Is(err, table.ErrFull) {
		t.Fatalf("PutBatch error = %v, want *table.FullError wrapping ErrFull", err)
	}
	if ins == 0 || ins != e.Len() {
		t.Fatalf("PutBatch applied %d before refusing, engine holds %d", ins, e.Len())
	}

	e = newFixed()
	out := make([]uint64, len(keys))
	loaded := make([]bool, len(keys))
	if _, err := getOrPutBatch(e, keys, vals, out, loaded); !errors.As(err, &fe) {
		t.Fatalf("GetOrPutBatch error = %v, want *table.FullError", err)
	}

	e = newFixed()
	if _, err := upsertBatch(e, keys, func(lane int, old uint64, _ bool) uint64 {
		return vals[lane]
	}); !errors.As(err, &fe) {
		t.Fatalf("UpsertBatch error = %v, want *table.FullError", err)
	}
}

// TestMigratingShardSizes: a shard held mid-resize counts both of its
// tables in MemoryFootprint and its successor's slots in Capacity, and
// Stats says the same.
func TestMigratingShardSizes(t *testing.T) {
	var made []shard.Table
	e := shard.MustNew(shard.Config{
		Shards: 1, Capacity: 64, GrowAt: 0.85, Seed: 11, MigrationChunk: 1,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			tb, err := table.New(table.SchemeLP, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
			made = append(made, tb)
			return tb, err
		},
	})
	for k := uint64(1); e.Stats().Migrating == 0; k++ {
		if _, err := tryPut(e, k, k); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if len(made) != 2 {
		t.Fatalf("%d tables made, want the first and its successor", len(made))
	}
	frozen, next := made[0], made[1]
	wantCap, wantMem := next.Capacity(), frozen.MemoryFootprint()+next.MemoryFootprint()
	if got := e.Capacity(); got != wantCap || got == frozen.Capacity() {
		t.Errorf("Capacity() = %d mid-resize, want the successor's %d (the frozen table has %d)", got, wantCap, frozen.Capacity())
	}
	if got := e.MemoryFootprint(); got != wantMem {
		t.Errorf("MemoryFootprint() = %d mid-resize, want both tables' %d", got, wantMem)
	}
	if st := e.Stats(); st.Capacity != wantCap || st.MemoryBytes != wantMem {
		t.Errorf("Stats() capacity %d, memory %d mid-resize, want %d and %d", st.Capacity, st.MemoryBytes, wantCap, wantMem)
	}
}

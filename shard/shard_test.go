package shard_test

import (
	"errors"
	"math"
	"testing"

	"repro/shard"
	"repro/table"
)

// newEngine builds an engine over the given scheme with scheme-level
// growth disabled (the engine grows shards itself).
func newEngine(t testing.TB, scheme table.Scheme, shards, capacity int, growAt float64, seed uint64) *shard.Engine {
	t.Helper()
	e, err := shard.New(shard.Config{
		Shards:   shards,
		Capacity: capacity,
		GrowAt:   growAt,
		Seed:     seed,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return table.New(scheme, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// writer is the write surface a shard.Table and a *shard.Engine share; the
// helpers below are the named write forms over its RMW and RMWBatch.
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

func TestEngineConfigValidation(t *testing.T) {
	if _, err := shard.New(shard.Config{}); err == nil {
		t.Fatal("nil NewTable accepted")
	}
	nt := func(capacity int, seed uint64) (shard.Table, error) {
		return table.New(table.SchemeLP, table.Config{InitialCapacity: capacity, Seed: seed})
	}
	for _, growAt := range []float64{1.0, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := shard.New(shard.Config{GrowAt: growAt, NewTable: nt}); err == nil {
			t.Fatalf("grow threshold %v accepted", growAt)
		}
	}
	if _, err := shard.New(shard.Config{Capacity: -1, NewTable: nt}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	e, err := shard.New(shard.Config{Shards: 5, Capacity: 1 << 10, GrowAt: 0.8, NewTable: nt})
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8 (rounded up)", e.Shards())
	}
}

// TestEngineIncrementalResize drives one shard through several growth
// generations and checks that (a) migrations actually run incrementally —
// there is an observable mid-migration state — and (b) every operation
// stays exact against an oracle throughout, including the sentinel keys
// and deletes/updates of entries still sitting in the frozen table.
func TestEngineIncrementalResize(t *testing.T) {
	for _, scheme := range table.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			e := newEngine(t, scheme, 1, 64, 0.8, 42)
			oracle := map[uint64]uint64{}
			sawMigrating := false

			check := func(k uint64) {
				got, ok := e.Get(k)
				want, exists := oracle[k]
				if ok != exists || (ok && got != want) {
					t.Fatalf("Get(%d) = (%d,%v), oracle (%d,%v)", k, got, ok, want, exists)
				}
			}
			put := func(k, v uint64) {
				ins, err := tryPut(e, k, v)
				if err != nil {
					t.Fatalf("Put(%d): %v", k, err)
				}
				_, existed := oracle[k]
				if ins == existed {
					t.Fatalf("Put(%d) inserted=%v, oracle existed=%v", k, ins, existed)
				}
				oracle[k] = v
			}
			del := func(k uint64) {
				had := e.Delete(k)
				_, existed := oracle[k]
				if had != existed {
					t.Fatalf("Delete(%d) = %v, oracle existed=%v", k, had, existed)
				}
				delete(oracle, k)
			}

			// Sentinels first: they must survive every migration.
			put(0, 111)
			put(^uint64(0), 222)
			for k := uint64(1); k <= 4000; k++ {
				put(k, k*10)
				if e.Stats().Migrating > 0 {
					sawMigrating = true
					// Exercise the mid-migration paths: read/update/delete
					// keys that are still in the frozen table (older keys),
					// and re-insert a deleted one.
					check(k / 2)
					put(k/2, k) // update while (possibly) frozen
					del(k / 3)
					put(k/3, k+1) // re-insert a dead key
					check(0)
					check(^uint64(0))
				}
				if k%701 == 0 {
					del(k - 1)
				}
			}
			if !sawMigrating {
				t.Fatal("growth never went through an observable incremental migration")
			}
			if e.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle %d", e.Len(), len(oracle))
			}
			// Drain any in-flight migration with further mutations, then
			// compare full contents via iteration.
			for e.Stats().Migrating > 0 {
				del(1<<40 + 1) // absent key: delete is a no-op but advances
			}
			st := e.Stats()
			if st.MigrationsStarted == 0 || st.MigrationsDone != st.MigrationsStarted || st.MigratedEntries == 0 {
				t.Fatalf("migration counters = %+v", st)
			}
			if st.Rebuilds != 0 && scheme != table.SchemeCuckooH4 {
				t.Fatalf("unexpected stop-the-world rebuilds: %+v", st)
			}
			seen := map[uint64]uint64{}
			for k, v := range e.All() {
				if _, dup := seen[k]; dup {
					t.Fatalf("iterator yielded key %d twice", k)
				}
				seen[k] = v
			}
			if len(seen) != len(oracle) {
				t.Fatalf("iterated %d entries, oracle %d", len(seen), len(oracle))
			}
			for k, v := range oracle {
				if seen[k] != v {
					t.Fatalf("iterated value for %d = %d, oracle %d", k, seen[k], v)
				}
			}
		})
	}
}

// TestEngineGetOrPutUpsertMidMigration covers the RMW primitives while a
// migration is in flight, where values may live in the frozen table.
func TestEngineGetOrPutUpsertMidMigration(t *testing.T) {
	e := newEngine(t, table.SchemeRH, 1, 64, 0.8, 7)
	oracle := map[uint64]uint64{}
	for k := uint64(1); k <= 3000; k++ {
		v, loaded, err := getOrPut(e, k, k*3)
		if err != nil {
			t.Fatal(err)
		}
		if loaded || v != k*3 {
			t.Fatalf("GetOrPut(%d) = (%d,%v) on fresh key", k, v, loaded)
		}
		oracle[k] = k * 3
		if k%7 == 0 {
			// Fold into an older key — often one still in the frozen table.
			old := k / 2
			nv, err := upsert(e, old, func(o uint64, exists bool) uint64 {
				if exists != (oracle[old] != 0) {
					t.Fatalf("Upsert(%d) exists=%v, oracle has %d", old, exists, oracle[old])
				}
				return o + 1
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle[old]++
			if nv != oracle[old] {
				t.Fatalf("Upsert(%d) = %d, oracle %d", old, nv, oracle[old])
			}
		}
		if k%11 == 0 {
			v, loaded, err := getOrPut(e, k/2, 999999)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded || v != oracle[k/2] {
				t.Fatalf("GetOrPut(%d) = (%d,%v), oracle %d", k/2, v, loaded, oracle[k/2])
			}
		}
	}
	if e.Stats().MigrationsStarted == 0 {
		t.Fatal("test never triggered a migration")
	}
	if e.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", e.Len(), len(oracle))
	}
}

// TestEngineGrowthDisabled preserves the WORM contract: GrowAt zero means
// a full shard surfaces ErrFull instead of migrating.
func TestEngineGrowthDisabled(t *testing.T) {
	e := newEngine(t, table.SchemeLP, 2, 32, 0, 3)
	sawFull := false
	for k := uint64(1); k <= 64; k++ {
		if _, err := tryPut(e, k, k); err != nil {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("growth-disabled engine never reported ErrFull")
	}
	if st := e.Stats(); st.MigrationsStarted != 0 {
		t.Fatalf("growth-disabled engine migrated: %+v", st)
	}
}

// TestEngineBatchMatchesScalar checks the scatter/gather batch surface
// against scalar replays across a growth boundary.
func TestEngineBatchMatchesScalar(t *testing.T) {
	eb := newEngine(t, table.SchemeQP, 4, 256, 0.8, 5)
	es := newEngine(t, table.SchemeQP, 4, 256, 0.8, 5)
	n := 6000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i%2500) + 1 // duplicates exercise last-wins order
		vals[i] = uint64(i)
	}
	bi, err := putBatch(eb, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	si := 0
	for i, k := range keys {
		ins, err := tryPut(es, k, vals[i])
		if err != nil {
			t.Fatal(err)
		}
		if ins {
			si++
		}
	}
	if bi != si || eb.Len() != es.Len() {
		t.Fatalf("batched inserted=%d len=%d, scalar inserted=%d len=%d", bi, eb.Len(), si, es.Len())
	}
	gv := make([]uint64, n)
	gok := make([]bool, n)
	hits := eb.GetBatch(keys, gv, gok)
	if hits != n {
		t.Fatalf("GetBatch hits = %d, want %d", hits, n)
	}
	for i, k := range keys {
		sv, sok := es.Get(k)
		if !gok[i] || !sok || gv[i] != sv {
			t.Fatalf("lane %d key %d: batched (%d,%v) scalar (%d,%v)", i, k, gv[i], gok[i], sv, sok)
		}
	}
}

// TestEngineGetOrPutBatchDropsResults: with out and loaded nil the call
// skips the gather and nothing else — against a twin engine taking the
// results, over batches that cross several growth boundaries (so ranges hit
// the pipeline, the migrating scalar path and the steady state alike) on
// one shard and on four, the insert counts and the contents stay equal.
func TestEngineGetOrPutBatchDropsResults(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, scheme := range []table.Scheme{table.SchemeRH, table.SchemeLP, table.SchemeCuckooH4, table.SchemeChained24} {
			kept := newEngine(t, scheme, shards, 256, 0.8, 5)
			dropped := newEngine(t, scheme, shards, 256, 0.8, 5)
			const n, step = 9000, 700
			keys, vals := make([]uint64, n), make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(i%4000) * 0x9e3779b97f4a7c15 // key 0 among them; repeats keep the first payload
				vals[i] = uint64(i)
			}
			out, loaded := make([]uint64, step), make([]bool, step)
			for lo := 0; lo < n; lo += step {
				hi := min(lo+step, n)
				want, err := getOrPutBatch(kept, keys[lo:hi], vals[lo:hi], out, loaded)
				if err != nil {
					t.Fatal(err)
				}
				got, err := getOrPutBatch(dropped, keys[lo:hi], vals[lo:hi], nil, nil)
				if err != nil || got != want {
					t.Fatalf("%s x%d, rows %d-%d: %d inserted, %v; with results %d", scheme, shards, lo, hi, got, err, want)
				}
			}
			if st := dropped.Stats(); st.MigrationsStarted == 0 {
				t.Fatalf("%s x%d: the engine never grew", scheme, shards)
			}
			if dropped.Len() != kept.Len() || dropped.Len() != 4000 {
				t.Fatalf("%s x%d: Len %d, with results %d, want 4000", scheme, shards, dropped.Len(), kept.Len())
			}
			kept.Range(func(k, v uint64) bool {
				if got, ok := dropped.Get(k); !ok || got != v {
					t.Fatalf("%s x%d: key %#x holds %d,%v, with results %d", scheme, shards, k, got, ok, v)
				}
				return true
			})
		}
	}
}

// refusingTable wraps a real table and refuses its refuseAt-th scalar
// upsert (an RMW with fn) before calling fn, as the Table contract
// requires of a refusal: the state a failed Cuckoo kick chain leaves
// behind. An RMWBatch with fn reaches a steady shard's table one key at a
// time, so the refusal lands mid-batch. The engine must recover without invoking any lane's fn a
// second time.
type refusingTable struct {
	shard.Table
	upserts, refuseAt int
}

func (r *refusingTable) RMW(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	if fn != nil {
		r.upserts++
		if r.upserts == r.refuseAt {
			return 0, false, errors.New("synthetic kick-chain refusal")
		}
	}
	return r.Table.RMW(key, val, overwrite, fn)
}

func TestEngineUpsertBatchRefusalRecovery(t *testing.T) {
	first := true
	e := shard.MustNew(shard.Config{
		Shards: 1, Capacity: 1 << 10, GrowAt: 0.85, Seed: 4,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			inner, err := table.New(table.SchemeLP, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
			if err != nil {
				return nil, err
			}
			if first {
				first = false
				return &refusingTable{Table: inner, refuseAt: 50}, nil
			}
			return inner, nil
		},
	})
	// Seed some existing keys so the batch mixes updates and inserts.
	for k := uint64(1); k <= 40; k++ {
		if _, err := tryPut(e, k, k*100); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, 100)
	calls := make([]int, 100)
	oracle := map[uint64]uint64{}
	for k := uint64(1); k <= 40; k++ {
		oracle[k] = k * 100
	}
	for i := range keys {
		keys[i] = uint64(i) + 1 // 1..100: 40 updates, 60 inserts
	}
	wantInserted := 0
	for _, k := range keys {
		if _, ok := oracle[k]; !ok {
			wantInserted++
		}
		oracle[k] = oracle[k] + k + 7
	}
	inserted, err := upsertBatch(e, keys, func(lane int, old uint64, exists bool) uint64 {
		calls[lane]++
		if exists != (old != 0) && old == 0 {
			// old==0 with exists=true is possible only for a stored zero,
			// which this test never writes.
			t.Fatalf("lane %d: exists=%v old=%d", lane, exists, old)
		}
		return old + keys[lane] + 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if inserted != wantInserted {
		t.Fatalf("inserted = %d, want %d", inserted, wantInserted)
	}
	for lane, c := range calls {
		if c != 1 {
			t.Fatalf("fn called %d times for lane %d, want exactly 1", c, lane)
		}
	}
	if e.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", e.Len(), len(oracle))
	}
	for k, v := range oracle {
		if got, ok := e.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = (%d,%v), oracle %d", k, got, ok, v)
		}
	}
	// The refusal must have forced a migration (the recovery path).
	if st := e.Stats(); st.MigrationsStarted == 0 {
		t.Fatalf("recovery never began a migration: %+v", st)
	}
}

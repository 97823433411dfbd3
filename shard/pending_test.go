package shard_test

// A steady shard's scalar Delete is logical: the key goes into the shard's
// pending set, readers mask it, and the next write window deletes it from
// the table. These tests pin what the caller sees of that.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/shard"
	"repro/table"
)

func pendingVal(k uint64) uint64 { return k ^ 0x5555 }

// TestPendingDeleteInvisibleToConcurrentReads: once Delete(k) has returned
// true, no Get, GetBatch, Range (All), or Len that starts afterwards sees
// k, while every key whose Delete has not begun stays visible under its
// value. Batched updates of the surviving keys open a window on every shard
// now and then, so reads race both the logical deletes and their apply.
func TestPendingDeleteInvisibleToConcurrentReads(t *testing.T) {
	const n, deleted = 1 << 12, 3 << 10
	e := newEngine(t, table.SchemeRH, 4, 1<<14, 0, 3) // growth off: every shard steady
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		vals[i] = pendingVal(keys[i])
	}
	if _, err := putBatch(e, keys, vals); err != nil {
		t.Fatal(err)
	}

	var done atomic.Int64 // keys[:done] have been deleted
	var stop atomic.Bool
	// check judges key j's visibility in a read that began with d deletes
	// done and ended with a: deleted before it, or not yet begun after it.
	check := func(op string, j int, d, a int64, v uint64, ok bool) {
		if int64(j) < d && ok {
			t.Errorf("%s sees key %d, deleted before the read began", op, j)
			stop.Store(true)
		}
		if int64(j) > a && (!ok || v != vals[j]) {
			t.Errorf("%s = (%d, %v) for key %d, whose delete had not begun: want (%d, true)", op, v, ok, j, vals[j])
			stop.Store(true)
		}
	}
	out, hit := make([]uint64, n), make([]bool, n)
	readers := []func(r *rand.Rand){
		func(r *rand.Rand) {
			j := r.IntN(n)
			d := done.Load()
			v, ok := e.Get(keys[j])
			check("Get", j, d, done.Load(), v, ok)
		},
		func(r *rand.Rand) {
			d := done.Load()
			e.GetBatch(keys, out, hit)
			a := done.Load()
			for j := range keys {
				check("GetBatch", j, d, a, out[j], hit[j])
			}
		},
		func(r *rand.Rand) {
			seen := make(map[uint64]uint64, n)
			d := done.Load()
			for k, v := range e.All() {
				seen[k] = v
			}
			a := done.Load()
			for j, k := range keys {
				v, ok := seen[k]
				check("All", j, d, a, v, ok)
			}
			d = done.Load()
			l := int64(e.Len())
			if a = done.Load(); l > n-d || l < n-a-1 {
				t.Errorf("Len = %d between %d and %d deletes", l, d, a)
				stop.Store(true)
			}
		},
	}
	var wg sync.WaitGroup
	reads := make([]atomic.Int64, len(readers))
	for i, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(i), 9))
			for !stop.Load() {
				read(r)
				reads[i].Add(1)
				runtime.Gosched() // one P: let the deleter on
			}
		}()
	}
	for i := range deleted {
		if !e.Delete(keys[i]) {
			t.Errorf("Delete of live key %d = false", i)
			break
		}
		done.Store(int64(i + 1))
		if i%32 == 31 {
			// Every reader makes a whole read with these deletes pending,
			// then a window applies them.
			for j := range reads {
				for want := reads[j].Load() + 2; reads[j].Load() < want && !stop.Load(); {
					runtime.Gosched()
				}
			}
			if _, err := putBatch(e, keys[deleted:], vals[deleted:]); err != nil {
				t.Error(err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := e.Len(); got != n-deleted {
		t.Fatalf("Len = %d after %d of %d keys deleted", got, deleted, n)
	}
}

// TestPendingDeletesLeaveOtherKeysHit: while one goroutine logically
// deletes keys of a steady shard, another's GetBatch of keys never deleted
// hits every one under its value — no pending key clears a lane that is
// not its own — and its GetBatch of deleted keys misses every one whose
// Delete returned before the batch began. Every few hundred deletes a
// PutBatch opens a window that applies them, and between those the set
// fills up, so reads race adds, applies and the full set's windowed delete.
func TestPendingDeletesLeaveOtherKeysHit(t *testing.T) {
	const live, deleted, recent = 1 << 11, 1 << 13, 512
	e := newEngine(t, table.SchemeRH, 1, 1<<15, 0, 5) // one steady shard
	keys := make([]uint64, live+deleted)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		vals[i] = pendingVal(keys[i])
	}
	if _, err := putBatch(e, keys, vals); err != nil {
		t.Fatal(err)
	}
	alive, gone := keys[:live], keys[live:]

	var done atomic.Int64 // gone[:done] have been deleted
	var stop atomic.Bool
	read := make(chan struct{})
	go func() {
		defer close(read)
		out, hit := make([]uint64, live), make([]bool, live)
		for !stop.Load() {
			if got := e.GetBatch(alive, out, hit); got != live {
				for j, k := range alive {
					if !hit[j] || out[j] != vals[j] {
						t.Errorf("GetBatch = (%d, %v) for never-deleted key %#x, want (%d, true): %d of %d hit", out[j], hit[j], k, vals[j], got, live)
						break
					}
				}
				stop.Store(true)
			}
			d := int(done.Load())
			lo := max(0, d-recent)
			if got := e.GetBatch(gone[lo:d], out, hit); got != 0 {
				t.Errorf("GetBatch hit %d of %d keys whose Delete had returned", got, d-lo)
				stop.Store(true)
			}
			runtime.Gosched() // one P: let the deleter on
		}
	}()
	for i, k := range gone {
		if stop.Load() {
			break
		}
		if !e.Delete(k) {
			t.Errorf("Delete of live key %#x = false", k)
			break
		}
		done.Store(int64(i + 1))
		switch {
		case i%400 == 399:
			if _, err := putBatch(e, alive[:64], vals[:64]); err != nil {
				t.Error(err)
			}
		case i%16 == 15:
			runtime.Gosched()
		}
	}
	stop.Store(true)
	<-read
	if got := e.Len(); !t.Failed() && got != live {
		t.Fatalf("Len = %d after every deletable key was deleted, want %d", got, live)
	}
}

// TestPendingKeyRevivedByWrites: every write of a pending key finds it
// absent and brings it back under the new value, and a second Delete of a
// pending key reports false.
func TestPendingKeyRevivedByWrites(t *testing.T) {
	const k, fresh = 77, 12345
	writes := map[string]func(e *shard.Engine) error{
		"Put": func(e *shard.Engine) error {
			if ins, err := tryPut(e, k, fresh); err != nil || !ins {
				return fmt.Errorf("Put = (%v, %v), want a fresh insert", ins, err)
			}
			return nil
		},
		"GetOrPut": func(e *shard.Engine) error {
			if v, loaded, err := getOrPut(e, k, fresh); err != nil || loaded || v != fresh {
				return fmt.Errorf("GetOrPut = (%d, %v, %v), want (%d, false)", v, loaded, err, fresh)
			}
			return nil
		},
		"Upsert": func(e *shard.Engine) error {
			saw := false
			v, err := upsert(e, k, func(_ uint64, exists bool) uint64 {
				saw = exists
				return fresh
			})
			if err != nil || saw || v != fresh {
				return fmt.Errorf("Upsert = (%d, %v), fn saw the key present: %v", v, err, saw)
			}
			return nil
		},
		"PutBatch": func(e *shard.Engine) error {
			if n, err := putBatch(e, []uint64{k, 1}, []uint64{fresh, pendingVal(1)}); err != nil || n != 1 {
				return fmt.Errorf("PutBatch = (%d, %v), want one insert", n, err)
			}
			return nil
		},
		"GetOrPutBatch": func(e *shard.Engine) error {
			out, loaded := make([]uint64, 1), make([]bool, 1)
			if n, err := getOrPutBatch(e, []uint64{k}, []uint64{fresh}, out, loaded); err != nil || n != 1 || loaded[0] || out[0] != fresh {
				return fmt.Errorf("GetOrPutBatch = (%d, %v), lane (%d, %v)", n, err, out[0], loaded[0])
			}
			return nil
		},
		"UpsertBatch": func(e *shard.Engine) error {
			saw := false
			n, err := upsertBatch(e, []uint64{k}, func(_ int, _ uint64, exists bool) uint64 {
				saw = exists
				return fresh
			})
			if err != nil || n != 1 || saw {
				return fmt.Errorf("UpsertBatch = (%d, %v), fn saw the key present: %v", n, err, saw)
			}
			return nil
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			e := newEngine(t, table.SchemeRH, 4, 1<<10, 0.85, 5)
			for key := uint64(1); key <= 100; key++ {
				if _, err := tryPut(e, key, pendingVal(key)); err != nil {
					t.Fatal(err)
				}
			}
			if !e.Delete(k) {
				t.Fatal("Delete of a live key = false")
			}
			if e.Delete(k) {
				t.Fatal("second Delete of a pending key = true")
			}
			if _, ok := e.Get(k); ok {
				t.Fatal("Get sees a pending key")
			}
			for key := range e.All() {
				if key == k {
					t.Fatal("All yields a pending key")
				}
			}
			if got := e.Len(); got != 99 {
				t.Fatalf("Len = %d with one key pending, want 99", got)
			}
			if err := write(e); err != nil {
				t.Fatal(err)
			}
			if v, ok := e.Get(k); !ok || v != fresh {
				t.Fatalf("Get after %s = (%d, %v), want (%d, true)", name, v, ok, fresh)
			}
			if got := e.Len(); got != 100 {
				t.Fatalf("Len = %d after %s revived the key, want 100", got, name)
			}
			if !e.Delete(k) {
				t.Fatal("Delete of the revived key = false")
			}
		})
	}
}

// TestPendingKeysNotCarriedIntoSuccessor: keys pending when a migration
// begins are deleted in the window that begins it, so the successor never
// holds them and the tables agree with the engine's count.
func TestPendingKeysNotCarriedIntoSuccessor(t *testing.T) {
	e := newEngine(t, table.SchemeRH, 1, 1<<10, 0.5, 8)
	key := func(i uint64) uint64 { return i*0x9e3779b97f4a7c15 + 1 }
	for i := uint64(0); i < 500; i++ {
		if _, err := tryPut(e, key(i), pendingVal(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if !e.Delete(key(i)) {
			t.Fatalf("Delete(key %d) = false", i)
		}
	}
	if e.Stats().Migrating != 0 {
		t.Fatal("migrating before the inserts that cross the threshold")
	}
	next := uint64(500)
	for ; e.Stats().Migrating == 0; next++ {
		if _, err := tryPut(e, key(next), pendingVal(key(next))); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Drain() {
		t.Fatal("Drain did not finish the migration")
	}
	if st := e.Stats(); st.MigrationsDone != 1 {
		t.Fatalf("stats %+v, want one finished migration", st)
	}
	tableLen, carried := 0, 0
	e.ForEachTable(func(_ int, tb shard.Table) {
		tableLen += tb.Len()
		for i := uint64(0); i < 100; i++ {
			if _, ok := tb.Get(key(i)); ok {
				carried++
			}
		}
	})
	if carried != 0 {
		t.Fatalf("the successor holds %d keys deleted before the migration began", carried)
	}
	if want := int(next) - 100; e.Len() != want || tableLen != want {
		t.Fatalf("Len %d, tables hold %d, want %d", e.Len(), tableLen, want)
	}
	for i := uint64(0); i < next; i++ {
		if _, ok := e.Get(key(i)); ok != (i >= 100) {
			t.Fatalf("Get(key %d) present = %v", i, ok)
		}
	}
}

package shard_test

// The migration cursor and the dead-key overlay under load, on real
// tables: a resize during which the frozen keys are all deleted — the
// overlay doubles several times under wait-free readers (under the race
// detector: through the locked read path) — and the bound on what one
// mutation's migration step may visit.

import (
	"sync"
	"testing"

	"repro/shard"
	"repro/table"
)

func TestDeleteHeavyMigrationAgreesWithMap(t *testing.T) {
	for _, scheme := range []table.Scheme{table.SchemeRH, table.SchemeChained24, table.SchemeCuckooH4} {
		t.Run(string(scheme), func(t *testing.T) {
			e := shard.MustNew(shard.Config{
				Shards: 1, Capacity: 1 << 13, GrowAt: 0.5, Seed: 31,
				MigrationChunk: 1, // one entry per step: the resize outlasts the deletes
				NewTable: func(capacity int, seed uint64) (shard.Table, error) {
					return table.New(scheme, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
				},
			})
			key := func(i uint64) uint64 { return (i - 1) * 0x9e3779b97f4a7c15 } // key(1) is key 0
			oracle := map[uint64]uint64{}
			n := uint64(0)
			for e.Stats().Migrating == 0 {
				n++
				if _, err := tryPut(e, key(n), key(n)^valTag); err != nil {
					t.Fatal(err)
				}
				oracle[key(n)] = key(n) ^ valTag
			}
			publishes := e.Stats().ViewPublishes

			// Readers: a stored value is a function of its key, and a key
			// that is never re-inserted (i%5 != 0) stays gone once a reader
			// has seen it gone — what a reader left on a stale overlay
			// would get wrong.
			var wg sync.WaitGroup
			done := make(chan struct{})
			for r := uint64(0); r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					gone := map[uint64]bool{}
					for i := r + 1; ; i = (i+7)%n + 1 {
						select {
						case <-done:
							return
						default:
						}
						v, ok := e.Get(key(i))
						switch {
						case ok && v != key(i)^valTag:
							t.Errorf("Get(key %d) = %#x, not the value stored under it", i, v)
							return
						case ok && gone[i]:
							t.Errorf("key %d read back after a reader saw it deleted", i)
							return
						case !ok && i%5 != 0:
							gone[i] = true
						}
					}
				}()
			}

			// The frozen keys are deleted one after the other while the
			// resize is in flight — the steps the re-inserts host end it a
			// little before the last of them — and every fifth comes back,
			// into the successor, three deletes later.
			for i := uint64(1); i <= n; i++ {
				if !e.Delete(key(i)) {
					t.Fatalf("Delete(key %d) found nothing", i)
				}
				delete(oracle, key(i))
				if j := i - 3; i > 3 && j%5 == 0 {
					if ins, err := tryPut(e, key(j), key(j)^valTag); err != nil || !ins {
						t.Fatalf("re-insert of key %d = (%v,%v)", j, ins, err)
					}
					oracle[key(j)] = key(j) ^ valTag
				}
				if i == n/2 && e.Stats().Migrating != 1 {
					t.Fatal("the resize ended before half the deletes")
				}
			}
			close(done)
			wg.Wait()

			st := e.Stats()
			if grown := st.ViewPublishes - publishes; grown < 4 {
				t.Fatalf("%d views published while %d keys died: the overlay never had to double", grown, n)
			}
			if !e.Drain() {
				t.Fatal("Drain did not reach idle")
			}
			if e.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle holds %d", e.Len(), len(oracle))
			}
			seen := 0
			e.Range(func(k, v uint64) bool {
				seen++
				if want, ok := oracle[k]; !ok || v != want {
					t.Fatalf("Range yields %#x=%#x, oracle (%#x,%v)", k, v, want, ok)
				}
				return true
			})
			if seen != len(oracle) {
				t.Fatalf("Range yields %d entries, oracle holds %d", seen, len(oracle))
			}
			for i := uint64(1); i <= n; i++ {
				want, wantOK := oracle[key(i)]
				if v, ok := e.Get(key(i)); ok != wantOK || v != want {
					t.Fatalf("Get(key %d) = (%#x,%v), oracle (%#x,%v)", i, v, ok, want, wantOK)
				}
			}
		})
	}
}

// TestMigratingGetBatchMatchesScalarChain: on a shard held mid-resize a
// GetBatch lane is what Get answers for the key — the batched read (the
// frozen table over the range, then the successor over the lanes it missed
// or the overlay marks dead) against the scalar one — and what a map
// says, for keys only in the frozen table, only in the successor, in both
// under the same value, overwritten (a dead frozen entry and a new value in
// the successor), dead, dead and re-inserted, never inserted, and both
// sentinel keys; at range lengths around the tables' chunk and the read's
// stride; before and after the overlay doubles.
func TestMigratingGetBatchMatchesScalarChain(t *testing.T) {
	for _, scheme := range []table.Scheme{table.SchemeRH, table.SchemeChained24, table.SchemeCuckooH4} {
		t.Run(string(scheme), func(t *testing.T) {
			e := shard.MustNew(shard.Config{
				Shards: 1, Capacity: 1 << 13, GrowAt: 0.5, Seed: 31,
				MigrationChunk: 1, // one entry per step: the resize outlasts the test
				NewTable: func(capacity int, seed uint64) (shard.Table, error) {
					return table.New(scheme, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
				},
			})
			key := func(i uint64) uint64 { return (i - 1) * 0x9e3779b97f4a7c15 } // key(1) is key 0
			oracle := map[uint64]uint64{}
			put := func(k, v uint64) {
				t.Helper()
				if _, err := tryPut(e, k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
			del := func(k uint64) {
				t.Helper()
				if !e.Delete(k) {
					t.Fatalf("Delete(%#x) found nothing", k)
				}
				delete(oracle, k)
			}
			put(^uint64(0), 1)
			n := uint64(0)
			for e.Stats().Migrating == 0 {
				n++
				put(key(n), n)
			}
			// The probe column: every frozen key, as many fresh ones (half
			// of them inserted below, into the successor), the other
			// sentinel.
			probe := []uint64{^uint64(0)}
			for i := uint64(1); i <= 2*n; i++ {
				probe = append(probe, key(i))
			}
			vals, ok := make([]uint64, len(probe)), make([]bool, len(probe))
			compare := func(when string) {
				t.Helper()
				if st := e.Stats(); st.Migrating != 1 {
					t.Fatalf("%s: the resize is over", when)
				}
				for _, length := range []int{0, 1, 63, 64, 65, 257, 4097} {
					for _, from := range []int{0, 1, len(probe) - length} {
						keys := probe[from : from+length]
						hits, want := e.GetBatch(keys, vals, ok), 0
						for i, k := range keys {
							sv, sok := e.Get(k)
							ov, ook := oracle[k]
							if ok[i] != sok || ok[i] != ook || (ok[i] && (vals[i] != sv || vals[i] != ov)) {
								t.Fatalf("%s, %d keys from %d: lane %d (key %#x) = (%d,%v), Get (%d,%v), map (%d,%v)", when, length, from, i, k, vals[i], ok[i], sv, sok, ov, ook)
							}
							if ook {
								want++
							}
						}
						if hits != want {
							t.Fatalf("%s, %d keys from %d: %d hits, map %d", when, length, from, hits, want)
						}
					}
				}
			}
			compare("frozen only")

			// By i%8: 1 overwritten (key 0 among them), 2 dead, 3 dead and
			// back under a new value, the rest left where they are — in the
			// frozen table, or moved by a step into both tables.
			mutate := func(from, to uint64) {
				for i := from; i < to; i++ {
					switch i % 8 {
					case 1:
						put(key(i), i+n)
					case 2:
						del(key(i))
					case 3:
						del(key(i))
						put(key(i), i+2*n)
					}
				}
			}
			mutate(1, 600) // 225 dead keys: the overlay is still the one it began with
			for i := n + 1; i <= n+n/2; i++ {
				put(key(i), i)
			}
			del(^uint64(0))
			publishes := e.Stats().ViewPublishes
			compare("overlay as published")
			mutate(600, 1000) // 375 dead keys: past half load of the 512 slots
			if got := e.Stats().ViewPublishes - publishes; got != 1 {
				t.Fatalf("%d views published over 150 more dead keys, want the one doubling", got)
			}
			compare("overlay doubled")
		})
	}
}

// countingTable counts the frozen entries the engine's walks visit.
type countingTable struct {
	shard.Table
	visits *int
}

func (c countingTable) RangeFrom(pos int, fn func(k, v uint64) bool) int {
	return c.Table.RangeFrom(pos, func(k, v uint64) bool { *c.visits++; return fn(k, v) })
}

// TestMigrationStepVisitsAtMostOneChunk pins the resize-tail guarantee
// (BenchmarkResizeTail measures it): whatever the scalar mutation, it
// visits at most MigrationChunk entries of the frozen table, sentinel
// entries included — a batch at most that per key — and over a whole
// resize every frozen entry is visited once.
func TestMigrationStepVisitsAtMostOneChunk(t *testing.T) {
	const chunk = 32
	visits := 0
	e := shard.MustNew(shard.Config{
		Shards: 1, Capacity: 1 << 9, GrowAt: 0.8, Seed: 3, MigrationChunk: chunk,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			inner, err := table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
			return countingTable{inner, &visits}, err
		},
	})
	key := func(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 } // key(0) is sentinel key 0
	tryPut(e, ^uint64(0), 1)
	bump := func(old uint64, _ bool) uint64 { return old + 1 }
	bumpLane := func(_ int, old uint64, _ bool) uint64 { return old + 1 }
	batch := make([]uint64, 8)
	out := make([]uint64, 8)
	flags := make([]bool, 8)
	var (
		resizes, sinceFreeze, frozenLen int
		migrating                       bool
	)
	for i := uint64(0); i < 20_000; i++ {
		for j := range batch {
			batch[j] = key(i + uint64(j))
		}
		visits = 0
		hosted := 1 // migration steps the call may host
		switch i % 8 {
		case 0, 1, 2:
			tryPut(e, key(i), i)
		case 3:
			e.Delete(key(i / 2))
		case 4:
			getOrPut(e, key(i), i)
		case 5:
			upsert(e, key(i/3), bump)
		case 6:
			hosted += len(batch)
			putBatch(e, batch, out)
		case 7:
			hosted += len(batch)
			if i%16 == 7 {
				upsertBatch(e, batch, bumpLane)
			} else {
				getOrPutBatch(e, batch, out, out, flags)
			}
		}
		// A batch hosts one step as a batch, and on a resizing shard one
		// more per key, which it then applies as a scalar mutation each.
		if visits > hosted*chunk {
			t.Fatalf("mutation %d (kind %d) visited %d frozen entries, want at most %d steps of the %d-entry chunk", i, i%8, visits, hosted, chunk)
		}
		st := e.Stats()
		switch {
		case !migrating && st.Migrating == 1:
			// This call froze the table; a batch has gone on since, adding
			// up to its keys and hosting steps.
			migrating, sinceFreeze, frozenLen = true, visits, e.Len()
		case migrating:
			sinceFreeze += visits
			if st.Migrating == 0 {
				migrating = false
				resizes++
				// Entries deleted since the freeze were still visited;
				// entries inserted since are not in the frozen table.
				if sinceFreeze > frozenLen || sinceFreeze < frozenLen-len(batch) {
					t.Fatalf("resize %d visited %d entries of a table frozen at about %d", resizes, sinceFreeze, frozenLen)
				}
			}
		}
	}
	if resizes < 4 {
		t.Fatalf("only %d resizes completed", resizes)
	}
	if st := e.Stats(); st.Rebuilds != 0 {
		t.Fatalf("%d stop-the-world rebuilds in a test of the incremental path", st.Rebuilds)
	}
}

package table

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// crossCheckBatch builds two identically configured tables — one through
// scalar Put, one through PutBatch — and verifies that GetBatch on either
// agrees with scalar Get on the other for every probe key, a miss's (0,
// false) included. It returns false on the first divergence.
func crossCheckBatch(s Scheme, cfg Config, keys, vals, probes []uint64) bool {
	scalar := mustNew(s, cfg)
	batched := mustNew(s, cfg)
	insScalar := 0
	for i, k := range keys {
		ins, err := tryPut(scalar, k, vals[i])
		if err != nil {
			return false
		}
		if ins {
			insScalar++
		}
	}
	insBatch, err := putBatch(batched, keys, vals)
	if err != nil || insScalar != insBatch || scalar.Len() != batched.Len() {
		return false
	}
	outVals := make([]uint64, len(probes))
	outOK := make([]bool, len(probes))
	wantHits := 0
	for _, p := range probes {
		if _, ok := scalar.Get(p); ok {
			wantHits++
		}
	}
	for _, m := range []Table{scalar, batched} {
		hits := m.GetBatch(probes, outVals, outOK)
		if hits != wantHits {
			return false
		}
		for i, p := range probes {
			wantV, wantOK := scalar.Get(p)
			if outOK[i] != wantOK || outVals[i] != wantV {
				return false
			}
		}
	}
	return true
}

// TestQuickBatchMatchesScalar: on randomized workloads, every scheme's
// batched pipeline is observationally identical to its scalar operations —
// same insert counts, same lookup results, for present and absent probes.
func TestQuickBatchMatchesScalar(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			prop := func(seed uint64, raw []uint16, grow bool) bool {
				rng := prng.NewXoshiro256(seed)
				n := 150 + int(rng.Uint64n(200))
				keys := make([]uint64, n)
				vals := make([]uint64, n)
				for i := range keys {
					// Narrow key space forces duplicates inside batches.
					keys[i] = rng.Uint64n(256)
					vals[i] = rng.Next()
				}
				// Sprinkle raw values in for quick-driven variety.
				for i, r := range raw {
					if i < len(keys) {
						keys[i] = uint64(r)
					}
				}
				probes := make([]uint64, 0, 2*n)
				probes = append(probes, keys...)
				for i := 0; i < n; i++ {
					probes = append(probes, rng.Next()) // almost surely absent
				}
				cfg := Config{InitialCapacity: 64, Seed: seed}
				if grow {
					cfg.MaxLoadFactor = 0.8
				} else {
					cfg.InitialCapacity = 4 * n
				}
				return crossCheckBatch(s, cfg, keys, vals, probes)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchSentinelsAcrossChunks pins the sentinel-routing path: the keys 0
// and 2^64-1 (whose literal values collide with the empty and tombstone
// markers) are placed directly on and around the BatchWidth chunk
// boundaries, so every chunk of the pipeline sees sentinel lanes at its
// edges.
func TestBatchSentinelsAcrossChunks(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			n := 3*BatchWidth + 7
			rng := prng.NewXoshiro256(9)
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Next()
				vals[i] = uint64(i)
			}
			// Sentinels straddling every chunk boundary, plus a re-put of
			// each sentinel in a later chunk (upsert path).
			for _, at := range []int{0, BatchWidth - 1, BatchWidth, 2*BatchWidth - 1} {
				keys[at] = emptyKey
			}
			for _, at := range []int{1, 2 * BatchWidth, 3*BatchWidth - 1, n - 1} {
				keys[at] = tombKey
			}
			probes := append(append([]uint64{}, keys...), emptyKey, tombKey, 12345)
			if !crossCheckBatch(s, Config{InitialCapacity: 4 * n, Seed: 5}, keys, vals, probes) {
				t.Fatal("batched pipeline diverged from scalar on sentinel-laden workload")
			}
		})
	}
}

// TestPutBatchDuplicateKeysLastWins: duplicates inside one batch follow
// sequential upsert semantics.
func TestPutBatchDuplicateKeysLastWins(t *testing.T) {
	for _, s := range allSchemes() {
		m := mustNew(s, Config{InitialCapacity: 64, Seed: 1})
		keys := []uint64{7, 7, 7, 9, 9, emptyKey, emptyKey}
		vals := []uint64{1, 2, 3, 4, 5, 6, 7}
		if ins, err := putBatch(m, keys, vals); err != nil || ins != 3 {
			t.Fatalf("%s: PutBatch inserted %d (%v), want 3", s, ins, err)
		}
		for k, want := range map[uint64]uint64{7: 3, 9: 5, emptyKey: 7} {
			if v, ok := m.Get(k); !ok || v != want {
				t.Fatalf("%s: Get(%d) = %d,%v want %d", s, k, v, ok, want)
			}
		}
	}
}

// TestGetBatchAfterDeletes: batched lookups honour tombstones and backward
// shifts left behind by scalar deletes — the pipelines share the schemes'
// probe invariants, not just their happy paths.
func TestGetBatchAfterDeletes(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			m := mustNew(s, Config{InitialCapacity: 1 << 10, Seed: 17})
			rng := prng.NewXoshiro256(23)
			keys := make([]uint64, 600)
			for i := range keys {
				keys[i] = rng.Next()
				put(t, m, keys[i], uint64(i))
			}
			for i := 0; i < len(keys); i += 2 {
				m.Delete(keys[i])
			}
			outV := make([]uint64, len(keys))
			outOK := make([]bool, len(keys))
			m.GetBatch(keys, outV, outOK)
			for i := range keys {
				wantV, wantOK := m.Get(keys[i])
				if outOK[i] != wantOK || (wantOK && outV[i] != wantV) {
					t.Fatalf("lane %d: batched %d,%v scalar %d,%v", i, outV[i], outOK[i], wantV, wantOK)
				}
			}
		})
	}
}

// readOnlyFixture builds a table of scheme s through the scalar methods
// only — so no batch pipeline has allocated the table-owned chunk scratch
// — holding both sentinels, a few hundred keys and some tombstones, and
// returns it with a probe column of hits, misses, deleted keys and
// sentinels several chunks long.
func readOnlyFixture(t *testing.T, s Scheme) (Table, []uint64) {
	tbl := mustNew(s, Config{InitialCapacity: 1 << 10, MaxLoadFactor: 0, Seed: 3})
	put(t, tbl, emptyKey, 1)
	put(t, tbl, tombKey, 2)
	var probes []uint64
	for i := uint64(1); i <= 300; i++ {
		k := i * 0x9e3779b97f4a7c15
		put(t, tbl, k, i)
		probes = append(probes, k, k+1) // k+1 was never inserted
	}
	for i := uint64(1); i <= 300; i += 7 {
		tbl.Delete(i * 0x9e3779b97f4a7c15)
	}
	return tbl, append(probes, emptyKey, tombKey)
}

// TestGetBatchIsReadOnly: GetBatch — what shard's wait-free readers run
// inside their unvalidated window — writes nothing of the table's: not its
// contents or statistics, and not the chunk scratch the mutation pipelines
// own (never even allocated here). In steady state it allocates nothing
// either: the scratch it borrows goes back to the pool.
func TestGetBatchIsReadOnly(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			tbl, probes := readOnlyFixture(t, s)
			contents := func() map[uint64]uint64 {
				m := map[uint64]uint64{}
				rangeAll(tbl, func(k, v uint64) bool { m[k] = v; return true })
				return m
			}
			before, statsBefore, lenBefore := contents(), StatsOf(tbl), tbl.Len()

			vals, ok := make([]uint64, len(probes)), make([]bool, len(probes))
			hits := tbl.GetBatch(probes, vals, ok)
			wantHits := 0
			for i, k := range probes {
				wantV, wantOK := tbl.Get(k)
				if ok[i] != wantOK || (wantOK && vals[i] != wantV) {
					t.Fatalf("lane %d (key %#x): batched %d,%v scalar %d,%v", i, k, vals[i], ok[i], wantV, wantOK)
				}
				if wantOK {
					wantHits++
				}
			}
			if hits != wantHits {
				t.Fatalf("GetBatch reported %d hits, lanes show %d", hits, wantHits)
			}

			if !reflect.ValueOf(tbl).Elem().FieldByName("bt").IsNil() {
				t.Fatal("GetBatch allocated the table's own chunk scratch")
			}
			if after := contents(); !reflect.DeepEqual(before, after) {
				t.Fatalf("contents changed under GetBatch: %v -> %v", before, after)
			}
			if statsAfter := StatsOf(tbl); !reflect.DeepEqual(statsBefore, statsAfter) {
				t.Fatalf("Stats changed under GetBatch: %+v -> %+v", statsBefore, statsAfter)
			}
			if tbl.Len() != lenBefore {
				t.Fatalf("Len changed under GetBatch: %d -> %d", lenBefore, tbl.Len())
			}
			if allocs := testing.AllocsPerRun(20, func() { tbl.GetBatch(probes, vals, ok) }); allocs != 0 {
				t.Fatalf("GetBatch: %v allocations per call in steady state", allocs)
			}
		})
	}
}

// TestGetBatchConcurrentReaders: any number of goroutines may GetBatch one
// quiescent table at once — each call's chunk scratch is its own. Run
// under -race this fails on a table-owned scratch (every reader writes
// it).
func TestGetBatchConcurrentReaders(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			tbl, probes := readOnlyFixture(t, s)
			want := make([]uint64, len(probes))
			wantOK := make([]bool, len(probes))
			wantHits := tbl.GetBatch(probes, want, wantOK)
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					vals, ok := make([]uint64, len(probes)), make([]bool, len(probes))
					for round := 0; round < 50; round++ {
						if hits := tbl.GetBatch(probes, vals, ok); hits != wantHits {
							t.Errorf("round %d: %d hits, want %d", round, hits, wantHits)
							return
						}
						if !reflect.DeepEqual(vals, want) || !reflect.DeepEqual(ok, wantOK) {
							t.Errorf("round %d: lanes differ from the single-threaded answer", round)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// kernOf returns a kernel scheme's table as the probe kernel it is.
func kernOf(t *testing.T, tbl Table) *kern {
	c, ok := tbl.(*kern)
	if !ok {
		t.Fatalf("%T is not a kernel scheme", tbl)
	}
	return c
}

// TestGetBatchTerminatesWithoutEmptySlot: a reader racing a writer can be
// shown slot contents no quiescent table has — here every slot occupied
// by a key no lane asks for. The round-robin walks must still terminate,
// with every lane a miss.
func TestGetBatchTerminatesWithoutEmptySlot(t *testing.T) {
	for _, s := range KernelSchemes() {
		t.Run(string(s), func(t *testing.T) {
			tbl := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0, Seed: 3})
			c := kernOf(t, tbl)
			for i := 0; i < c.slotCount(); i++ {
				c.setAtS(uint64(i)<<c.ks, uint64(i)+1000, 7)
			}
			probes := make([]uint64, 2*BatchWidth+5)
			for i := range probes {
				probes[i] = uint64(i) + 1 // 1..133: none stored
			}
			vals, ok := make([]uint64, len(probes)), make([]bool, len(probes))
			for i := range ok {
				vals[i], ok[i] = 99, true
			}
			if hits := tbl.GetBatch(probes, vals, ok); hits != 0 {
				t.Fatalf("%d hits on a table holding none of the keys", hits)
			}
			for i := range probes {
				if ok[i] || vals[i] != 0 {
					t.Fatalf("lane %d = (%d,%v), want a miss", i, vals[i], ok[i])
				}
			}
		})
	}
}

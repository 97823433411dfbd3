package table

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// crossCheckBatch builds two identically configured tables — one through
// scalar Put, one through PutBatch — and verifies that GetBatch on either
// agrees with scalar Get on the other for every probe key. It returns false
// on the first divergence.
func crossCheckBatch(s Scheme, cfg Config, keys, vals, probes []uint64) bool {
	scalar := MustNew(s, cfg)
	batched := MustNew(s, cfg)
	insScalar := 0
	for i, k := range keys {
		if scalar.Put(k, vals[i]) {
			insScalar++
		}
	}
	insBatch := PutBatch(batched, keys, vals)
	if insScalar != insBatch || scalar.Len() != batched.Len() {
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
	for _, m := range []Map{scalar, batched} {
		hits := GetBatch(m, probes, outVals, outOK)
		if hits != wantHits {
			return false
		}
		for i, p := range probes {
			wantV, wantOK := scalar.Get(p)
			if outOK[i] != wantOK || (wantOK && outVals[i] != wantV) {
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
		m := MustNew(s, Config{InitialCapacity: 64, Seed: 1})
		keys := []uint64{7, 7, 7, 9, 9, emptyKey, emptyKey}
		vals := []uint64{1, 2, 3, 4, 5, 6, 7}
		if ins := PutBatch(m, keys, vals); ins != 3 {
			t.Fatalf("%s: PutBatch inserted %d, want 3", s, ins)
		}
		for k, want := range map[uint64]uint64{7: 3, 9: 5, emptyKey: 7} {
			if v, ok := m.Get(k); !ok || v != want {
				t.Fatalf("%s: Get(%d) = %d,%v want %d", s, k, v, ok, want)
			}
		}
	}
}

// TestBatchHelpersScalarFallback: the package helpers work on Maps without
// a batched pipeline.
func TestBatchHelpersScalarFallback(t *testing.T) {
	m := scalarOnlyMap{MustNew(SchemeLP, Config{InitialCapacity: 64, Seed: 3})}
	keys := []uint64{1, 2, 3, 2}
	vals := []uint64{10, 20, 30, 21}
	if ins := PutBatch(m, keys, vals); ins != 3 {
		t.Fatalf("fallback PutBatch inserted %d, want 3", ins)
	}
	outV := make([]uint64, len(keys))
	outOK := make([]bool, len(keys))
	if hits := GetBatch(m, keys, outV, outOK); hits != 4 {
		t.Fatalf("fallback GetBatch hits = %d, want 4", hits)
	}
	if outV[1] != 21 || outV[3] != 21 {
		t.Fatalf("fallback GetBatch vals = %v", outV)
	}
}

// scalarOnlyMap hides the Batcher implementation of the wrapped Map.
type scalarOnlyMap struct{ inner Map }

func (m scalarOnlyMap) Put(k, v uint64) bool            { return m.inner.Put(k, v) }
func (m scalarOnlyMap) Get(k uint64) (uint64, bool)     { return m.inner.Get(k) }
func (m scalarOnlyMap) Delete(k uint64) bool            { return m.inner.Delete(k) }
func (m scalarOnlyMap) Len() int                        { return m.inner.Len() }
func (m scalarOnlyMap) Capacity() int                   { return m.inner.Capacity() }
func (m scalarOnlyMap) LoadFactor() float64             { return m.inner.LoadFactor() }
func (m scalarOnlyMap) MemoryFootprint() uint64         { return m.inner.MemoryFootprint() }
func (m scalarOnlyMap) Range(fn func(k, v uint64) bool) { m.inner.Range(fn) }
func (m scalarOnlyMap) Name() string                    { return m.inner.Name() }

// TestGetBatchAfterDeletes: batched lookups honour tombstones and backward
// shifts left behind by scalar deletes — the pipelines share the schemes'
// probe invariants, not just their happy paths.
func TestGetBatchAfterDeletes(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			m := MustNew(s, Config{InitialCapacity: 1 << 10, Seed: 17})
			rng := prng.NewXoshiro256(23)
			keys := make([]uint64, 600)
			for i := range keys {
				keys[i] = rng.Next()
				m.Put(keys[i], uint64(i))
			}
			for i := 0; i < len(keys); i += 2 {
				m.Delete(keys[i])
			}
			outV := make([]uint64, len(keys))
			outOK := make([]bool, len(keys))
			GetBatch(m, keys, outV, outOK)
			for i := range keys {
				wantV, wantOK := m.Get(keys[i])
				if outOK[i] != wantOK || (wantOK && outV[i] != wantV) {
					t.Fatalf("lane %d: batched %d,%v scalar %d,%v", i, outV[i], outOK[i], wantV, wantOK)
				}
			}
		})
	}
}

// TestTouchIsReadOnly: the kernel's exported Touch — what shard's wait-free
// readers call — fills the caller's scratch with the keys' hash codes and
// writes nothing of the table's: not its contents, and not the chunk
// scratch the batch walks own (never even allocated here).
func TestTouchIsReadOnly(t *testing.T) {
	for _, s := range KernelSchemes() {
		t.Run(string(s), func(t *testing.T) {
			cfg := Config{InitialCapacity: 256, MaxLoadFactor: 0, Seed: 3}
			tbl := MustNew(s, cfg)
			keys := []uint64{emptyKey, tombKey, 1, 2, 3, 1 << 40, 77, 78, 79}
			for _, k := range keys[:6] {
				tbl.Put(k, k+1)
			}
			before := map[uint64]uint64{}
			tbl.Range(func(k, v uint64) bool { before[k] = v; return true })

			hash := make([]uint64, BatchWidth)
			tbl.(interface {
				Touch(keys, hash []uint64) uint64
			}).Touch(keys, hash)

			fn := cfg.withDefaults().Family.New(cfg.Seed) // as kern.setup draws it
			for i, k := range keys {
				if hash[i] != fn.Hash(k) {
					t.Fatalf("hash[%d] = %#x, want Hash(%#x) = %#x", i, hash[i], k, fn.Hash(k))
				}
			}
			if !reflect.ValueOf(tbl).Elem().FieldByName("bt").IsNil() {
				t.Fatal("Touch allocated the table's chunk scratch")
			}
			after := map[uint64]uint64{}
			tbl.Range(func(k, v uint64) bool { after[k] = v; return true })
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("contents changed under Touch: %v -> %v", before, after)
			}
		})
	}
}

package table

// Property tests for the single-probe read-modify-write primitives: the
// batched forms must equal their scalar counterparts op for op (including
// sentinel keys and duplicates straddling chunk boundaries), and the
// ErrFull contract must hold on every growth-disabled scheme without a
// reachable panic or lost data.

import (
	"errors"
	"testing"

	"repro/internal/prng"
)

// rmwKeys builds a key stream with duplicates, sentinels and chunk-border
// straddling: ~n keys drawn from a small universe so batches collide.
func rmwKeys(n int, seed uint64) []uint64 {
	rng := prng.NewXoshiro256(seed)
	keys := make([]uint64, n)
	for i := range keys {
		switch rng.Uint64n(16) {
		case 0:
			keys[i] = 0 // empty-marker sentinel
		case 1:
			keys[i] = ^uint64(0) // tombstone-marker sentinel
		default:
			keys[i] = rng.Uint64n(uint64(n)) + 1
		}
	}
	// Force duplicates right at a BatchWidth boundary.
	if n > BatchWidth+1 {
		keys[BatchWidth-1] = 12345
		keys[BatchWidth] = 12345
	}
	return keys
}

func TestGetOrPutBatchEqualsScalar(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			keys := rmwKeys(1000, 11)
			vals := make([]uint64, len(keys))
			for i := range vals {
				vals[i] = uint64(i) + 1
			}
			batched := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 5})
			scalar := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 5})

			out := make([]uint64, len(keys))
			loaded := make([]bool, len(keys))
			insB, err := batched.GetOrPutBatch(keys, vals, out, loaded)
			if err != nil {
				t.Fatal(err)
			}
			insS := 0
			for i, k := range keys {
				v, ok, err := scalar.GetOrPut(k, vals[i])
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					insS++
				}
				if v != out[i] || ok != loaded[i] {
					t.Fatalf("lane %d key %d: batch (%d,%v) != scalar (%d,%v)", i, k, out[i], loaded[i], v, ok)
				}
			}
			if insB != insS {
				t.Fatalf("inserted: batch %d, scalar %d", insB, insS)
			}
			if batched.Len() != scalar.Len() {
				t.Fatalf("Len: batch %d, scalar %d", batched.Len(), scalar.Len())
			}
		})
	}
}

// TestTryPutBatchEqualsScalar is named for PutBatch's error-reporting form
// as it was called before Put and PutBatch took its signature.
func TestTryPutBatchEqualsScalar(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			keys := rmwKeys(1000, 23)
			vals := make([]uint64, len(keys))
			for i := range vals {
				vals[i] = uint64(i) * 3
			}
			batched := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 9})
			scalar := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 9})
			insB, err := batched.PutBatch(keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			insS := 0
			for i, k := range keys {
				ins, err := scalar.Put(k, vals[i])
				if err != nil {
					t.Fatal(err)
				}
				if ins {
					insS++
				}
			}
			if insB != insS {
				t.Fatalf("inserted: batch %d, scalar %d", insB, insS)
			}
			// Contents must match exactly (last write wins per key).
			scalar.Range(func(k, v uint64) bool {
				bv, ok := batched.Get(k)
				if !ok || bv != v {
					t.Fatalf("key %d: batch %d,%v, scalar %d", k, bv, ok, v)
				}
				return true
			})
			if batched.Len() != scalar.Len() {
				t.Fatalf("Len: batch %d, scalar %d", batched.Len(), scalar.Len())
			}
		})
	}
}

func TestUpsertBatchEqualsScalar(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			keys := rmwKeys(1000, 37)
			fold := func(old uint64, exists bool) uint64 {
				if exists {
					return old * 2
				}
				return 1
			}
			batched := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 3})
			scalar := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 3})
			insB, err := batched.UpsertBatch(keys, func(_ int, old uint64, exists bool) uint64 {
				return fold(old, exists)
			})
			if err != nil {
				t.Fatal(err)
			}
			insS := 0
			for _, k := range keys {
				if _, err := scalar.Upsert(k, fold); err != nil {
					t.Fatal(err)
				}
			}
			scalar.Range(func(k, v uint64) bool {
				bv, ok := batched.Get(k)
				if !ok || bv != v {
					t.Fatalf("key %d: batch %d,%v, scalar %d", k, bv, ok, v)
				}
				insS++
				return true
			})
			if batched.Len() != insS {
				t.Fatalf("Len: batch %d, scalar %d", batched.Len(), insS)
			}
			_ = insB
		})
	}
}

// TestGetOrPutMatchesGetThenPut: on a fresh pair of tables, GetOrPut must
// be observationally identical to the Get-then-Put sequence it replaces.
func TestGetOrPutMatchesGetThenPut(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			keys := rmwKeys(2000, 51)
			single := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.7, Seed: 1})
			double := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.7, Seed: 1})
			for i, k := range keys {
				v := uint64(i) + 10
				got, loaded, err := single.GetOrPut(k, v)
				if err != nil {
					t.Fatal(err)
				}
				want, existed := double.Get(k)
				if !existed {
					put(t, double, k, v)
					want = v
				}
				if loaded != existed || got != want {
					t.Fatalf("key %d: GetOrPut (%d,%v) != Get-then-Put (%d,%v)", k, got, loaded, want, existed)
				}
			}
			if single.Len() != double.Len() {
				t.Fatalf("Len: %d != %d", single.Len(), double.Len())
			}
		})
	}
}

// TestErrFullContract fills a growth-disabled table through Put until it
// reports ErrFull, then verifies nothing was lost, that the batched forms
// agree, and that nothing grew the table.
func TestErrFullContract(t *testing.T) {
	for _, s := range []Scheme{SchemeLP, SchemeLPSoA, SchemeQP, SchemeRH, SchemeCuckooH4} {
		t.Run(string(s), func(t *testing.T) {
			m := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0, Seed: 13})
			capacity := m.Capacity()
			var inserted []uint64
			var full bool
			for k := uint64(1); k <= 200; k++ {
				ins, err := m.Put(k, k*10)
				if err != nil {
					if !errors.Is(err, ErrFull) {
						t.Fatalf("Put error %v, want ErrFull", err)
					}
					var fe *FullError
					if !errors.As(err, &fe) || fe.Capacity == 0 {
						t.Fatalf("error %v does not carry a populated *FullError", err)
					}
					full = true
					break
				}
				if !ins {
					t.Fatalf("Put(%d) reported update on fresh key", k)
				}
				inserted = append(inserted, k)
			}
			if !full {
				t.Fatal("table with 64 slots never reported ErrFull over 200 inserts")
			}
			// Nothing lost, and the failed insert did not corrupt state.
			for _, k := range inserted {
				if v, ok := m.Get(k); !ok || v != k*10 {
					t.Fatalf("after ErrFull, Get(%d) = %d,%v", k, v, ok)
				}
			}
			// The batched forms surface the same error.
			if _, err := m.PutBatch([]uint64{9999}, []uint64{1}); !errors.Is(err, ErrFull) {
				t.Fatalf("PutBatch err = %v, want ErrFull", err)
			}
			out := make([]uint64, 1)
			ld := make([]bool, 1)
			if _, err := m.GetOrPutBatch([]uint64{9999}, []uint64{1}, out, ld); !errors.Is(err, ErrFull) {
				t.Fatalf("GetOrPutBatch err = %v, want ErrFull", err)
			}
			if _, err := m.Upsert(9999, func(uint64, bool) uint64 { return 1 }); !errors.Is(err, ErrFull) {
				t.Fatalf("Upsert err = %v, want ErrFull", err)
			}
			// GetOrPut of an EXISTING key still succeeds on a full table.
			if v, loaded, err := m.GetOrPut(inserted[0], 1); err != nil || !loaded || v != inserted[0]*10 {
				t.Fatalf("GetOrPut(existing) on full table = %d,%v,%v", v, loaded, err)
			}
			if m.Capacity() != capacity || m.Len() != len(inserted) {
				t.Fatalf("full table moved: capacity %d -> %d, Len %d, want %d", capacity, m.Capacity(), m.Len(), len(inserted))
			}
		})
	}
}

// TestCuckooFixedCapacityNeverGrows pushes a growth-disabled Cuckoo table
// to (and past) its feasibility limit: every refused insert must report
// ErrFull, the capacity must never change (no silent doubling through the
// kick-failure rehash path), and no previously inserted key may be lost.
func TestCuckooFixedCapacityNeverGrows(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		m := newCuckoo(Config{InitialCapacity: 64, MaxLoadFactor: 0, Seed: seed})
		capacity := m.Capacity()
		var kept []uint64
		for k := uint64(1); k <= uint64(capacity)+8; k++ {
			ins, err := m.Put(k, k*3)
			if err != nil {
				if !errors.Is(err, ErrFull) {
					t.Fatalf("seed %d: Put(%d) err = %v", seed, k, err)
				}
				if ins {
					t.Fatalf("seed %d: Put(%d) reported inserted alongside ErrFull", seed, k)
				}
				continue
			}
			kept = append(kept, k)
		}
		if m.Capacity() != capacity {
			t.Fatalf("seed %d: capacity grew %d -> %d with growth disabled", seed, capacity, m.Capacity())
		}
		if len(kept) != m.Len() {
			t.Fatalf("seed %d: Len %d, kept %d", seed, m.Len(), len(kept))
		}
		for _, k := range kept {
			if v, ok := m.Get(k); !ok || v != k*3 {
				t.Fatalf("seed %d: lost key %d (= %d,%v)", seed, k, v, ok)
			}
		}
	}
}

// TestCuckooWallRefusesOnlyBlockedKeys: once a growth-disabled insert has
// been refused, the fixedWall memo refuses in O(k) the keys with no free
// candidate slot, while a key with one still goes in.
func TestCuckooWallRefusesOnlyBlockedKeys(t *testing.T) {
	// Fill to ~90% so every subtable is mostly occupied — keys both with
	// and without a free candidate slot then exist in abundance.
	m := newCuckoo(Config{InitialCapacity: 64, MaxLoadFactor: 0, Seed: 13})
	for k := uint64(1); k <= 58; k++ {
		put(t, m, k, k)
	}
	// Simulate a prior feasibility refusal (reaching one organically
	// depends on the seed — small tables usually pack perfectly).
	m.fixedWall = m.size
	// A key with all candidate slots occupied is refused in O(k)...
	var blocked, free uint64
	for k := uint64(10_000); blocked == 0 || free == 0; k++ {
		var at candidates
		for j := range m.ways {
			at[j] = m.pos(j, k)
		}
		if m.emptyCandidate(&at) {
			if free == 0 {
				free = k
			}
		} else if blocked == 0 {
			blocked = k
		}
	}
	if _, err := m.Put(blocked, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("walled Put(no free candidate) err = %v, want ErrFull", err)
	}
	// ...but a key with a free candidate slot bypasses the memo.
	if ins, err := m.Put(free, 1); err != nil || !ins {
		t.Fatalf("walled Put(free candidate) = %v, %v", ins, err)
	}
}

// TestChainedNeverFull: the chained schemes absorb any number of entries
// with growth disabled and never return ErrFull.
func TestChainedNeverFull(t *testing.T) {
	for _, s := range []Scheme{SchemeChained8, SchemeChained24} {
		m := mustNew(s, Config{InitialCapacity: 8, MaxLoadFactor: 0, Seed: 1})
		for k := uint64(0); k < 1000; k++ {
			put(t, m, k, k)
		}
		if m.Len() != 1000 {
			t.Fatalf("%s: Len = %d", s, m.Len())
		}
	}
}

// TestAllIterator: a Handle's All must agree with its contents on every
// scheme, and support early break.
func TestAllIterator(t *testing.T) {
	for _, s := range allSchemes() {
		m := MustOpen(WithScheme(s), WithCapacity(64), WithMaxLoadFactor(0.8), WithSeed(2))
		want := map[uint64]uint64{}
		for k := uint64(0); k < 300; k++ {
			if _, err := m.Put(k, k*k); err != nil {
				t.Fatal(err)
			}
			want[k] = k * k
		}
		got := map[uint64]uint64{}
		for k, v := range m.All() {
			got[k] = v
		}
		if len(got) != len(want) {
			t.Fatalf("%s: All yielded %d entries, want %d", s, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: All[%d] = %d, want %d", s, k, got[k], v)
			}
		}
		n := 0
		for range m.All() {
			n++
			if n == 5 {
				break
			}
		}
		if n != 5 {
			t.Fatalf("%s: early break iterated %d", s, n)
		}
	}
}

// BenchmarkBuildSingleProbe compares the build-side cost of the new
// single-probe primitives against the Get-then-Put double probe they
// replace (the acceptance benchmark, ns/key). Two build shapes:
//
//   - join: every row is a distinct key (a PK build), so Get-then-Put
//     pays a full miss probe plus a full insert probe per row — the case
//     the single-probe primitives cut in half;
//   - agg: ~8 rows per group, where most rows resolve to an existing key
//     and the saving applies only to first-seen groups.
func BenchmarkBuildSingleProbe(b *testing.B) {
	const n = 1 << 16
	rng := prng.NewXoshiro256(77)
	shapes := []struct {
		name       string
		dupsPerKey int
	}{
		{"join", 1},
		{"agg", 8},
	}
	for _, shape := range shapes {
		distinct := n / shape.dupsPerKey
		keys := make([]uint64, n)
		if shape.dupsPerKey == 1 {
			for i := range keys {
				keys[i] = rng.Next()
			}
		} else {
			for i := range keys {
				keys[i] = rng.Uint64n(uint64(distinct)) + 1
			}
		}
		// 50% final load factor, growth disabled: the WORM build setting.
		cfg := Config{InitialCapacity: distinct * 2, MaxLoadFactor: 0, Seed: 42}
		for _, s := range []Scheme{SchemeLP, SchemeQP, SchemeRH, SchemeCuckooH4, SchemeChained24} {
			prefix := shape.name + "/" + string(s)
			b.Run(prefix+"/GetThenPut", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := mustNew(s, cfg)
					for _, k := range keys {
						if _, ok := m.Get(k); !ok {
							m.Put(k, k)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
			b.Run(prefix+"/GetOrPut", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := mustNew(s, cfg)
					for _, k := range keys {
						m.GetOrPut(k, k)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
			b.Run(prefix+"/GetOrPutBatch", func(b *testing.B) {
				out := make([]uint64, BatchWidth)
				loaded := make([]bool, BatchWidth)
				for i := 0; i < b.N; i++ {
					m := mustNew(s, cfg)
					for base := 0; base < n; base += BatchWidth {
						kc := keys[base : base+BatchWidth]
						m.GetOrPutBatch(kc, kc, out, loaded)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
		}
	}
}

// FuzzDifferentialOps drives a byte-coded op stream against LP, RH, Cuckoo
// and both chained directory layouts simultaneously, cross-checked against
// a builtin map oracle. The chained tables start at 8 buckets, so a tape
// crosses directory doublings and (in ChainedH24) inline promotion.
func FuzzDifferentialOps(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x83, 0x44, 0x00, 0xff, 0xfe, 0x10})
	f.Add([]byte("getorput-upsert-delete"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tables := []Table{
			mustNew(SchemeLP, Config{InitialCapacity: 16, MaxLoadFactor: 0.8, Seed: 1}),
			mustNew(SchemeRH, Config{InitialCapacity: 16, MaxLoadFactor: 0.8, Seed: 2}),
			mustNew(SchemeCuckooH4, Config{InitialCapacity: 32, MaxLoadFactor: 0.8, Seed: 3}),
			mustNew(SchemeChained8, Config{InitialCapacity: 8, MaxLoadFactor: 0.8, Seed: 4}),
			mustNew(SchemeChained24, Config{InitialCapacity: 8, MaxLoadFactor: 0.8, Seed: 5}),
		}
		oracle := map[uint64]uint64{}
		for i, b := range data {
			// Key universe of 16 (plus the sentinels) keeps collisions hot.
			k := uint64(b & 0x0f)
			if b&0x10 != 0 {
				k = ^uint64(0) - k%2
			}
			v := uint64(i) + 1
			switch b >> 5 {
			case 0, 1:
				for _, m := range tables {
					put(t, m, k, v)
				}
				oracle[k] = v
			case 2:
				for _, m := range tables {
					if _, _, err := m.GetOrPut(k, v); err != nil {
						t.Fatal(err)
					}
				}
				if _, ok := oracle[k]; !ok {
					oracle[k] = v
				}
			case 3:
				for _, m := range tables {
					if _, err := m.Upsert(k, func(old uint64, exists bool) uint64 {
						if exists {
							return old + 1
						}
						return v
					}); err != nil {
						t.Fatal(err)
					}
				}
				if old, ok := oracle[k]; ok {
					oracle[k] = old + 1
				} else {
					oracle[k] = v
				}
			case 4:
				for _, m := range tables {
					m.Delete(k)
				}
				delete(oracle, k)
			default:
				ov, existed := oracle[k]
				for _, m := range tables {
					if got, ok := m.Get(k); ok != existed || (ok && got != ov) {
						t.Fatalf("%s: Get(%d) = %d,%v; oracle %d,%v", m.Name(), k, got, ok, ov, existed)
					}
				}
			}
		}
		for _, m := range tables {
			if m.Len() != len(oracle) {
				t.Fatalf("%s: Len %d, oracle %d", m.Name(), m.Len(), len(oracle))
			}
			m.Range(func(k, v uint64) bool {
				if ov, ok := oracle[k]; !ok || ov != v {
					t.Fatalf("%s: contains %d=%d, oracle %d,%v", m.Name(), k, v, ov, ok)
				}
				return true
			})
		}
	})
}

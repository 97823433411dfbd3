package table

// Ablation benchmarks for the design choices the paper motivates:
//
//   - Robin Hood's cache-line-granular early abort (§2.4): probe misses
//     with and without the abort criterion, across load factors.
//   - LP's backward shift (Algorithm R) vs RH's partial cluster rehash
//     (§2.4), which stops at the first entry in its home slot: delete cost
//     and post-churn lookup cost under both.
//   - Cuckoo's kick bound (§2.5): insert throughput as maxKicks varies.
//   - Chained24's inline directory vs Chained8's pointer-only directory
//     (§2.1): the pointer-chase cost on successful lookups.
//
// Run with: go test ./table -bench Ablation -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/prng"
)

// rhGetNoAbort is RH lookup without the early-abort criterion: plain LP
// probing over the RH layout, the baseline the paper's tuned variant beats
// on unsuccessful lookups.
func rhGetNoAbort(t *kern, key uint64) (uint64, bool) {
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == emptyKey {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// rhGetAbortEveryProbe recomputes the displacement on every probe — the
// variant the paper rejected as "prohibitively expensive w.r.t. runtime".
func rhGetAbortEveryProbe(t *kern, key uint64) (uint64, bool) {
	i := t.home(key)
	for d := uint64(0); ; d++ {
		s := &t.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == emptyKey {
			return 0, false
		}
		if (i-t.home(s.key))&t.mask < d {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

func buildRH(b *testing.B, capacity int, lfPct int) (*kern, []uint64, []uint64) {
	b.Helper()
	n := capacity * lfPct / 100
	m := newKern(SchemeRH, Config{InitialCapacity: capacity, Seed: 42})
	rng := prng.NewXoshiro256(1)
	present := make([]uint64, n)
	for i := range present {
		present[i] = rng.Next() | 1
		put(b, m, present[i], uint64(i))
	}
	absent := make([]uint64, n)
	for i := range absent {
		absent[i] = rng.Next() | 1
	}
	return m, present, absent
}

// BenchmarkAblationRHEarlyAbort compares the three abort strategies on
// all-unsuccessful lookups, where the criterion matters (§2.4).
func BenchmarkAblationRHEarlyAbort(b *testing.B) {
	for _, lf := range []int{50, 70, 90} {
		m, _, absent := buildRH(b, 1<<16, lf)
		variants := []struct {
			name string
			get  func(*kern, uint64) (uint64, bool)
		}{
			{"cacheline", (*kern).Get}, // the paper's tuned choice
			{"never", rhGetNoAbort},
			{"everyprobe", rhGetAbortEveryProbe},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("lf%d/%s", lf, v.name), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					val, _ := v.get(m, absent[i%len(absent)])
					sink ^= val
				}
				_ = sink
			})
		}
	}
}

// BenchmarkAblationRHEarlyAbortSuccessful verifies the abort's cost on the
// best case (all lookups successful) is the small 1-5% the paper reports.
func BenchmarkAblationRHEarlyAbortSuccessful(b *testing.B) {
	m, present, _ := buildRH(b, 1<<16, 90)
	variants := []struct {
		name string
		get  func(*kern, uint64) (uint64, bool)
	}{
		{"cacheline", (*kern).Get},
		{"never", rhGetNoAbort},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				val, _ := v.get(m, present[i%len(present)])
				sink ^= val
			}
			_ = sink
		})
	}
}

// BenchmarkAblationDeleteStrategy compares LP's backward shift, which
// walks to the cluster's end, with RH's partial cluster rehash, which the
// displacement ordering stops early: first raw delete+reinsert churn, then
// miss lookups after heavy churn (which tombstones would lengthen).
func BenchmarkAblationDeleteStrategy(b *testing.B) {
	const capacity = 1 << 14
	const lfPct = 70
	n := capacity * lfPct / 100
	setup := func() (Table, Table, []uint64) {
		lp := newKern(SchemeLP, Config{InitialCapacity: capacity, Seed: 42})
		rh := newKern(SchemeRH, Config{InitialCapacity: capacity, Seed: 42})
		rng := prng.NewXoshiro256(2)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Next() | 1
			put(b, lp, keys[i], uint64(i))
			put(b, rh, keys[i], uint64(i))
		}
		return lp, rh, keys
	}
	lp, rh, keys := setup()
	for _, v := range []struct {
		name string
		m    Table
	}{{"LP-backshift", lp}, {"RH-partialrehash", rh}} {
		b.Run("churn/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				v.m.Delete(k)
				tryPut(v.m, k, uint64(i))
			}
		})
	}
	// Post-churn miss lookups.
	rng := prng.NewXoshiro256(3)
	absent := make([]uint64, n)
	for i := range absent {
		absent[i] = rng.Next() | 1
	}
	for _, v := range []struct {
		name string
		m    Table
	}{{"LP-backshift", lp}, {"RH-partialrehash", rh}} {
		b.Run("miss-after-churn/"+v.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				val, _ := v.m.Get(absent[i%len(absent)])
				sink ^= val
			}
			_ = sink
		})
	}
}

// BenchmarkAblationCuckooMaxKicks sweeps the kick bound: too low forces
// rehash storms, high bounds only pay on pathological chains (§2.5).
func BenchmarkAblationCuckooMaxKicks(b *testing.B) {
	for _, kicks := range []int{8, 32, 500} {
		b.Run(fmt.Sprintf("maxKicks%d", kicks), func(b *testing.B) {
			const capacity = 1 << 12
			n := capacity * 9 / 10
			rng := prng.NewXoshiro256(4)
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Next() | 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Growing (past the fill): a failed kick chain redraws,
				// and doubles as a last resort, instead of refusing.
				m := newCuckoo(Config{InitialCapacity: capacity, MaxLoadFactor: 0.95, Seed: uint64(i)})
				m.maxKicks = kicks
				for j, k := range keys {
					tryPut(m, k, uint64(j))
				}
				b.ReportMetric(float64(m.Rehashes()), "rehashes")
			}
		})
	}
}

// BenchmarkAblationChainedDirectory isolates the §2.1 pointer-chase: hit
// lookups in Chained8 (always one indirection) vs Chained24 (collision-free
// buckets answer from the directory line).
func BenchmarkAblationChainedDirectory(b *testing.B) {
	const dirSlots = 1 << 16
	n := dirSlots / 2 // low load: most buckets collision-free
	c8 := newChained(SchemeChained8, Config{InitialCapacity: dirSlots, Seed: 42})
	c24 := newChained(SchemeChained24, Config{InitialCapacity: dirSlots, Seed: 42})
	rng := prng.NewXoshiro256(5)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Next() | 1
		put(b, c8, keys[i], uint64(i))
		put(b, c24, keys[i], uint64(i))
	}
	for _, v := range []struct {
		name string
		m    Table
	}{{"ChainedH8", c8}, {"ChainedH24", c24}} {
		b.Run(v.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				val, _ := v.m.Get(keys[i%len(keys)])
				sink ^= val
			}
			_ = sink
		})
	}
}

// BenchmarkAblationAoSvsSoAHit isolates the §7 layout trade on successful
// lookups at low load factor, where AoS's single-line hit should win.
func BenchmarkAblationAoSvsSoAHit(b *testing.B) {
	const capacity = 1 << 18
	n := capacity / 2
	aos := newKern(SchemeLP, Config{InitialCapacity: capacity, Seed: 42})
	soa := newKern(SchemeLPSoA, Config{InitialCapacity: capacity, Seed: 42})
	rng := prng.NewXoshiro256(6)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Next() | 1
		put(b, aos, keys[i], uint64(i))
		put(b, soa, keys[i], uint64(i))
	}
	for _, v := range []struct {
		name string
		m    Table
	}{{"AoS", aos}, {"SoA", soa}} {
		b.Run(v.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				val, _ := v.m.Get(keys[i%len(keys)])
				sink ^= val
			}
			_ = sink
		})
	}
}

// rhDeleteTailRehash is the paper's literal partial-cluster-rehash delete:
// clear the slot, then take every following entry of the cluster out and
// re-insert it. Our production Delete uses backward-shifting, which
// produces the same layout with one move per entry and no hash
// recomputation; this ablation quantifies the difference (it is why our RH
// is more competitive on write-heavy workloads than the paper's, see
// EXPERIMENTS.md).
func rhDeleteTailRehash(t *kern, key uint64) bool {
	i := t.home(key)
	for d := uint64(0); ; d++ {
		s := &t.slots[i]
		if s.key == emptyKey {
			return false
		}
		if s.key == key {
			break
		}
		if (i-t.home(s.key))&t.mask < d {
			return false
		}
		i = (i + 1) & t.mask
	}
	// Collect the cluster tail after the victim, clear it, re-insert.
	t.slots[i] = pair{}
	t.size--
	var tail []pair
	j := (i + 1) & t.mask
	for t.slots[j].key != emptyKey {
		tail = append(tail, t.slots[j])
		t.slots[j] = pair{}
		t.size--
		j = (j + 1) & t.mask
	}
	for _, e := range tail {
		t.reinsert(e.key, e.val)
	}
	return true
}

// BenchmarkAblationRHDeleteStrategy compares backward-shift deletion with
// the paper's full tail rehash under delete/reinsert churn at 85% load.
func BenchmarkAblationRHDeleteStrategy(b *testing.B) {
	const capacity = 1 << 14
	n := capacity * 85 / 100
	build := func() (*kern, []uint64) {
		m := newKern(SchemeRH, Config{InitialCapacity: capacity, Seed: 42})
		rng := prng.NewXoshiro256(7)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Next() | 1
			put(b, m, keys[i], uint64(i))
		}
		return m, keys
	}
	b.Run("backshift", func(b *testing.B) {
		m, keys := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			m.Delete(k)
			tryPut(m, k, uint64(i))
		}
	})
	b.Run("tailrehash", func(b *testing.B) {
		m, keys := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			rhDeleteTailRehash(m, k)
			tryPut(m, k, uint64(i))
		}
	})
}

// TestRHDeleteTailRehashEquivalence verifies the ablation baseline is a
// correct delete: both strategies must leave semantically identical tables.
func TestRHDeleteTailRehashEquivalence(t *testing.T) {
	a := newKern(SchemeRH, Config{InitialCapacity: 256, Seed: 3})
	b := newKern(SchemeRH, Config{InitialCapacity: 256, Seed: 3})
	rng := prng.NewXoshiro256(4)
	live := map[uint64]bool{}
	for i := 0; i < 8000; i++ {
		k := rng.Uint64n(220) + 1
		if live[k] {
			if !a.Delete(k) || !rhDeleteTailRehash(b, k) {
				t.Fatalf("op %d: delete disagreement for %d", i, k)
			}
			delete(live, k)
		} else {
			put(t, a, k, k)
			put(t, b, k, k)
			live[k] = true
		}
		if a.Len() != b.Len() {
			t.Fatalf("op %d: Len %d vs %d", i, a.Len(), b.Len())
		}
	}
	for k := range live {
		va, oka := a.Get(k)
		vb, okb := b.Get(k)
		if !oka || !okb || va != vb {
			t.Fatalf("key %d: %d,%v vs %d,%v", k, va, oka, vb, okb)
		}
	}
}

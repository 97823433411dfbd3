package table

import (
	"errors"
	"testing"

	"repro/internal/prng"
)

// TestCuckooAchievableLoadFactors reproduces the §2.5 discussion: the load
// factors at which traditional k-ary Cuckoo construction works without
// rehashing are ~<50% for k=2, ~88% for k=3 and ~96.7% for k=4. We build to
// a "safe" load factor (comfortably below each threshold) and require zero
// rehashes, then build past the threshold and require that construction had
// to rehash, or refuse keys with ErrFull, to cope.
func TestCuckooAchievableLoadFactors(t *testing.T) {
	const capacity = 1 << 13
	cases := []struct {
		ways     int
		safePct  int // build must succeed with zero rehashes
		breakPct int // build must trigger rehashing or refusals
	}{
		{2, 42, 60},
		{3, 80, 95},
		{4, 93, 99},
	}
	rng := prng.NewXoshiro256(123)
	keys := make([]uint64, capacity)
	for i := range keys {
		keys[i] = rng.Next() | 1
	}
	for _, c := range cases {
		m := newCuckooK(Config{InitialCapacity: capacity, Seed: 9}, c.ways)
		nSafe := m.Capacity() * c.safePct / 100
		for i := 0; i < nSafe; i++ {
			put(t, m, keys[i], uint64(i))
		}
		if m.Rehashes() != 0 {
			t.Errorf("k=%d: %d rehashes while building to %d%% (should be achievable)",
				c.ways, m.Rehashes(), c.safePct)
		}
		if m.Len() != nSafe {
			t.Fatalf("k=%d: built %d entries, want %d", c.ways, m.Len(), nSafe)
		}

		m2 := newCuckooK(Config{InitialCapacity: capacity, Seed: 9}, c.ways)
		nBreak := m2.Capacity() * c.breakPct / 100
		var kept []int
		for i := 0; i < nBreak; i++ {
			if _, err := m2.Put(keys[i], uint64(i)); err == nil {
				kept = append(kept, i)
			} else if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
		}
		if m2.Rehashes() == 0 && len(kept) == nBreak {
			t.Errorf("k=%d: built to %d%% with no rehash or refusal; threshold should forbid it",
				c.ways, c.breakPct)
		}
		if m2.Capacity() != m.Capacity() {
			t.Errorf("k=%d: growth-disabled table grew %d -> %d", c.ways, m.Capacity(), m2.Capacity())
		}
		// Whatever it took, every key the table accepted is there.
		for _, i := range kept {
			if v, ok := m2.Get(keys[i]); !ok || v != uint64(i) {
				t.Fatalf("k=%d: key %d lost after stress build", c.ways, i)
			}
		}
	}
}

// TestCuckoo3Ways exercises the non-power-of-two subtable path end to end.
func TestCuckoo3Ways(t *testing.T) {
	m := newCuckooK(Config{InitialCapacity: 1 << 10, MaxLoadFactor: 0.8, Seed: 4}, 3)
	if m.Ways() != 3 {
		t.Fatalf("Ways = %d", m.Ways())
	}
	if m.Capacity()%3 != 0 {
		t.Fatalf("capacity %d not divisible into 3 subtables", m.Capacity())
	}
	rng := prng.NewXoshiro256(5)
	oracle := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64n(4000)
		switch rng.Uint64n(4) {
		case 0:
			m.Delete(k)
			delete(oracle, k)
		default:
			put(t, m, k, k*3)
			oracle[k] = k * 3
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", m.Len(), len(oracle))
	}
	for k, v := range oracle {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v", k, got, ok)
		}
	}
	occ := m.WayOccupancy()
	if len(occ) != 3 {
		t.Fatalf("occupancy %v", occ)
	}
}

// placedCuckoo returns a 4-way table with occ[j] entries written straight
// into subtable j — a layout no insert order would produce, which is the
// point: the probe statistics must be read off the table, not assumed.
func placedCuckoo(occ [4]int) *cuckoo {
	m := newCuckoo(Config{InitialCapacity: 64, Seed: 1})
	key := uint64(1)
	for j, n := range occ {
		for i := 0; i < n; i++ {
			m.slots[j*int(m.subCap)+i] = pair{key, key}
			key++
			m.size++
		}
	}
	return m
}

// TestCuckooStatsMeasureWayOccupancy: an entry in way j costs j+1 probes,
// so MeanProbe is the occupancy-weighted mean way (not the (1+k)/2 of a
// uniform placement) and MaxProbe the deepest occupied way; merging
// stripes weights by entry count.
func TestCuckooStatsMeasureWayOccupancy(t *testing.T) {
	a := placedCuckoo([4]int{3, 0, 1, 0})
	if occ := a.WayOccupancy(); len(occ) != 4 || occ[0] != 3 || occ[1] != 0 || occ[2] != 1 || occ[3] != 0 {
		t.Fatalf("WayOccupancy = %v", occ)
	}
	st := StatsOf(a)
	if st.MeanProbe != 1.5 || st.MaxProbe != 3 {
		t.Fatalf("mean/max probe = %v/%d, want 1.5/3", st.MeanProbe, st.MaxProbe)
	}
	st.merge(StatsOf(placedCuckoo([4]int{0, 2, 0, 0})))
	if want := (3*1 + 1*3 + 2*2) / 6.0; st.MeanProbe != want || st.MaxProbe != 3 || st.Len != 6 {
		t.Fatalf("merged mean/max/len = %v/%d/%d, want %v/3/6", st.MeanProbe, st.MaxProbe, st.Len, want)
	}
	if st := StatsOf(placedCuckoo([4]int{})); st.MeanProbe != 0 || st.MaxProbe != 0 {
		t.Fatalf("empty table: mean/max probe = %v/%d", st.MeanProbe, st.MaxProbe)
	}
	// A built table fills its early ways first: the mean sits below the
	// uniform-placement figure.
	m := newCuckoo(Config{InitialCapacity: 1 << 12, Seed: 2})
	rng := prng.NewXoshiro256(3)
	for loadFactor(m) < 0.7 {
		put(t, m, rng.Next()|1, 0)
	}
	if st := StatsOf(m); st.MeanProbe < 1 || st.MeanProbe >= 2.5 || st.MaxProbe != 4 {
		t.Fatalf("70%%-full table: mean/max probe = %v/%d", st.MeanProbe, st.MaxProbe)
	}
}

package table

import (
	"errors"
	"slices"
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
			if _, err := tryPut(m2, keys[i], uint64(i)); err == nil {
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

// TestCuckooMeanProbeAtSeventyPercent pins the figure EXPERIMENTS.md
// gives for Cuckoo's bounded probes: CuckooH4 filled to 70% load answers a
// hit after 2.15 probes on average (an entry in way j costs j+1), where a
// placement uniform over the four ways would cost 2.5. Over 2^12–2^20
// slots, seeds 1–4 and random or Sparse keys it measured 2.14–2.17; the
// band is 2.10–2.20.
func TestCuckooMeanProbeAtSeventyPercent(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m := newCuckoo(Config{InitialCapacity: 1 << 16, Seed: seed})
		rng := prng.NewXoshiro256(seed + 100)
		for loadFactor(m) < 0.7 {
			put(t, m, rng.Next()|1, 0)
		}
		if mean := StatsOf(m).MeanProbe; mean < 2.10 || mean > 2.20 {
			t.Errorf("seed %d: MeanProbe = %.4f at 70%% load on 4 ways, want 2.10–2.20", seed, mean)
		}
	}
}

// TestCuckooRebuildIsDeterministic pins the tables that fixed-seed CuckooH4
// fills build through every §2.5 rebuild path. The growth-disabled fill
// runs past the ≈97% threshold: one kick-chain failure is settled by a
// function redraw at the same capacity, and a later one exhausts the
// redraws and restores the prior entries (ErrFull). The 0.99 growing fill
// redraws on kick-chain failures, and doubles when a capacity's redraws run
// out, beside the growths of maybeGrow; the 0.9 growing fill only grows,
// and a growth keeps the current functions for its first build. A table's
// function generations, kick count and slot contents follow from the
// rebuild order alone, so any change to that order shows up here.
func TestCuckooRebuildIsDeterministic(t *testing.T) {
	fills := []struct {
		name     string
		cfg      Config
		keys     int    // Puts issued, keys drawn from one seeded stream
		refused  int    // Puts that reported ErrFull
		rehashes int    // Rehashes
		kicks    uint64 // TotalKicks
		capacity int
		occ      []int  // WayOccupancy
		digest   uint64 // of Range's (key, value) sequence, in order
	}{
		{"fixed-past-threshold", Config{InitialCapacity: 1 << 12, Seed: 21}, 1 << 12,
			108, 18, 207807, 4096, []int{1012, 1003, 999, 974}, 0xfcf67b7c33d1caa9},
		{"growing-0.99", Config{InitialCapacity: 64, MaxLoadFactor: 0.99, Seed: 21}, 20000,
			0, 181, 2386938, 32768, []int{7493, 6451, 4309, 1747}, 0xe2a81c532d9f236f},
		{"growing-0.9", Config{InitialCapacity: 64, MaxLoadFactor: 0.9, Seed: 5}, 20000,
			0, 0, 13562, 32768, []int{7459, 6400, 4354, 1787}, 0xf9481b0b643adfab},
	}
	for _, f := range fills {
		t.Run(f.name, func(t *testing.T) {
			m := newCuckoo(f.cfg)
			rng := prng.NewSplitMix64(f.cfg.Seed)
			refused := 0
			for i := 0; i < f.keys; i++ {
				if _, err := tryPut(m, rng.Next()|1, uint64(i)); errors.Is(err, ErrFull) {
					refused++
				} else if err != nil {
					t.Fatal(err)
				}
			}
			digest := uint64(0)
			rangeAll(m, func(k, v uint64) bool {
				digest = prng.Mix(digest ^ k ^ v*0x9e3779b97f4a7c15)
				return true
			})
			if refused != f.refused || m.Rehashes() != f.rehashes || m.TotalKicks() != f.kicks || m.Capacity() != f.capacity {
				t.Errorf("refused %d, rehashes %d, kicks %d, capacity %d; want %d, %d, %d, %d",
					refused, m.Rehashes(), m.TotalKicks(), m.Capacity(), f.refused, f.rehashes, f.kicks, f.capacity)
			}
			if occ := m.WayOccupancy(); !slices.Equal(occ, f.occ) {
				t.Errorf("WayOccupancy %v, want %v", occ, f.occ)
			}
			if digest != f.digest {
				t.Errorf("Range digest %#x, want %#x", digest, f.digest)
			}
		})
	}
}

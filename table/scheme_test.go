package table

import (
	"errors"
	"testing"

	"repro/hashfn"
	"repro/internal/prng"
)

// --- Linear probing specifics -----------------------------------------------

// TestLPTombstonePlacement verifies the optimized delete: a tombstone is
// placed only when the next slot is occupied.
func TestLPTombstonePlacement(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 1 << 10, Seed: 1})
	// Force a collision cluster by inserting until we find three keys in a
	// row somewhere; easier: insert enough keys to create clusters.
	for i := uint64(1); i <= 512; i++ {
		put(t, m, i*2654435761, i)
	}
	// Delete every key; afterwards no live entries remain and lookups of
	// all keys miss (tombstones must not resurrect anything).
	for i := uint64(1); i <= 512; i++ {
		if !m.Delete(i * 2654435761) {
			t.Fatalf("delete of key %d failed", i)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
	for i := uint64(1); i <= 512; i++ {
		if _, ok := m.Get(i * 2654435761); ok {
			t.Fatalf("deleted key %d still found", i)
		}
	}
	// Cluster-end clearing must have removed trailing tombstones: an empty
	// table should have zero or very few tombstones... in fact deleting in
	// insertion order can leave tombstones mid-cluster, but a full sweep
	// in reverse cleans cluster tails. At minimum, tombstones < deletes.
	if m.Tombstones() >= 512 {
		t.Fatalf("all %d deletes left tombstones; optimized placement is not working", m.Tombstones())
	}
}

// TestLPTombstoneRecycling: inserts must reuse tombstoned slots.
func TestLPTombstoneRecycling(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 64, Seed: 2})
	// Fill half, delete half, refill: with growth disabled this only works
	// if tombstones are recycled.
	for round := 0; round < 100; round++ {
		for i := uint64(1); i <= 30; i++ {
			put(t, m, i, i)
		}
		for i := uint64(1); i <= 30; i++ {
			m.Delete(i)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestLPClusterConnectivity: after arbitrary deletes, every resident key
// must remain reachable (the invariant the tombstone strategy protects).
func TestLPClusterConnectivity(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 256, Seed: 3})
	rng := prng.NewXoshiro256(4)
	live := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64n(200) + 1
		if live[k] {
			m.Delete(k)
			delete(live, k)
		} else {
			put(t, m, k, k)
			live[k] = true
		}
		// Every live key must be findable after every operation.
		if i%97 == 0 {
			for want := range live {
				if _, ok := m.Get(want); !ok {
					t.Fatalf("op %d: live key %d unreachable", i, want)
				}
			}
		}
	}
}

// --- Quadratic probing specifics ---------------------------------------------

// TestQPTriangularCoverage verifies the §2.3 guarantee: with c1=c2=1/2 and
// power-of-two capacity, the probe sequence visits every slot exactly once
// in l probes.
func TestQPTriangularCoverage(t *testing.T) {
	for _, l := range []int{8, 64, 1024} {
		mask := uint64(l - 1)
		seen := make([]bool, l)
		pos := uint64(5) % uint64(l) // arbitrary home
		count := 0
		for step := uint64(0); step < uint64(l); step++ {
			if !seen[pos] {
				seen[pos] = true
				count++
			}
			pos = (pos + step + 1) & mask
		}
		if count != l {
			t.Fatalf("l=%d: triangular probing visited %d distinct slots, want %d", l, count, l)
		}
	}
}

// TestQPFullTableInsert fills a QP table to 100% capacity; the coverage
// guarantee means every insert must find the remaining empty slots.
func TestQPFullTableInsert(t *testing.T) {
	const l = 256
	m := newKern(SchemeQP, Config{InitialCapacity: l, Seed: 5})
	for i := uint64(1); i <= l; i++ {
		put(t, m, i*0x9E3779B97F4A7C15, i)
	}
	if m.Len() != l {
		t.Fatalf("Len = %d, want %d", m.Len(), l)
	}
	for i := uint64(1); i <= l; i++ {
		if v, ok := m.Get(i * 0x9E3779B97F4A7C15); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v at full table", i, v, ok)
		}
	}
	// Unsuccessful lookups on a 100% full table must terminate.
	if _, ok := m.Get(0x1234567); ok {
		t.Fatal("phantom hit")
	}
}

// TestQPTombstoneChurnFixedCapacity: delete/insert cycles on a full-ish
// fixed table exercise the full-sweep tombstone-recycling path.
func TestQPTombstoneChurnFixedCapacity(t *testing.T) {
	const l = 128
	m := newKern(SchemeQP, Config{InitialCapacity: l, Seed: 6})
	for i := uint64(1); i <= l; i++ { // completely full
		put(t, m, i, i)
	}
	for round := uint64(0); round < 200; round++ {
		k := round%l + 1
		if !m.Delete(k) {
			t.Fatalf("round %d: delete %d failed", round, k)
		}
		nk := k + 1000*(round+1)
		if !put(t, m, nk, nk) {
			t.Fatalf("round %d: insert %d failed", round, nk)
		}
		if v, ok := m.Get(nk); !ok || v != nk {
			t.Fatalf("round %d: get %d = %d,%v", round, nk, v, ok)
		}
		// Restore the original key for the next rounds' bookkeeping.
		if !m.Delete(nk) {
			t.Fatalf("round %d: cleanup delete failed", round)
		}
		put(t, m, k, k)
	}
	if m.Len() != l {
		t.Fatalf("Len = %d, want %d", m.Len(), l)
	}
}

// --- Robin Hood specifics -----------------------------------------------------

// TestRHOrderingInvariant checks the Robin Hood invariant after random
// churn: scanning any cluster from its start, an entry's displacement never
// exceeds its probe distance from any key's perspective; concretely, for
// each slot i holding an entry with displacement d, the entry at i-1 (if in
// the same cluster) has displacement >= d-1.
func TestRHOrderingInvariant(t *testing.T) {
	m := newKern(SchemeRH, Config{InitialCapacity: 512, Seed: 7})
	rng := prng.NewXoshiro256(8)
	live := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64n(400) + 1
		if live[k] {
			m.Delete(k)
			delete(live, k)
		} else {
			put(t, m, k, k)
			live[k] = true
		}
	}
	mask := uint64(m.Capacity() - 1)
	for i := range m.slots {
		if m.slots[i].key == emptyKey {
			continue
		}
		d := m.displacementAt(uint64(i))
		if d == 0 {
			continue
		}
		prev := (uint64(i) - 1) & mask
		if m.slots[prev].key == emptyKey {
			t.Fatalf("slot %d has displacement %d but predecessor is empty", i, d)
		}
		pd := m.displacementAt(prev)
		if pd+1 < d {
			t.Fatalf("RH invariant violated at slot %d: displacement %d after predecessor with %d", i, d, pd)
		}
	}
}

// TestRHMatchesLPTotalDisplacement: RH redistributes displacement but
// cannot change its total relative to LP on identical inputs (§2.4).
func TestRHMatchesLPTotalDisplacement(t *testing.T) {
	lp := newKern(SchemeLP, Config{InitialCapacity: 1 << 12, Seed: 9})
	rh := newKern(SchemeRH, Config{InitialCapacity: 1 << 12, Seed: 9})
	rng := prng.NewXoshiro256(10)
	for i := 0; i < 3000; i++ {
		k := rng.Next()
		put(t, lp, k, k)
		put(t, rh, k, k)
	}
	sum := func(xs []int) (s int) {
		for _, x := range xs {
			s += x
		}
		return
	}
	lpTotal, rhTotal := sum(lp.Displacements()), sum(rh.Displacements())
	if lpTotal != rhTotal {
		t.Fatalf("total displacement LP=%d RH=%d; Robin Hood must not change the total", lpTotal, rhTotal)
	}
	// But RH must reduce (or at least not increase) the maximum.
	maxOf := func(xs []int) (m int) {
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return
	}
	if maxOf(rh.Displacements()) > maxOf(lp.Displacements()) {
		t.Fatalf("RH max displacement %d exceeds LP's %d", maxOf(rh.Displacements()), maxOf(lp.Displacements()))
	}
}

// TestRHEarlyAbortCorrectness: the cache-line early abort must never
// produce a false negative. Compare Get against a linear reference scan.
func TestRHEarlyAbortCorrectness(t *testing.T) {
	m := newKern(SchemeRH, Config{InitialCapacity: 256, Seed: 11})
	rng := prng.NewXoshiro256(12)
	present := map[uint64]uint64{}
	for i := 0; i < 230; i++ { // ~90% load factor
		k := rng.Next()
		put(t, m, k, k+1)
		present[k] = k + 1
	}
	for k, v := range present {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("present key %#x: Get = %d,%v", k, got, v)
		}
	}
	for i := 0; i < 10000; i++ {
		k := rng.Next()
		if _, isPresent := present[k]; isPresent {
			continue
		}
		if _, ok := m.Get(k); ok {
			t.Fatalf("absent key %#x reported found", k)
		}
	}
}

// TestRHDeleteBackshift: deletions rehash the cluster tail; afterwards all
// remaining keys stay reachable and the invariant holds.
func TestRHDeleteBackshift(t *testing.T) {
	m := newKern(SchemeRH, Config{InitialCapacity: 128, Seed: 13})
	keys := make([]uint64, 0, 100)
	rng := prng.NewXoshiro256(14)
	for i := 0; i < 100; i++ {
		k := rng.Next()
		keys = append(keys, k)
		put(t, m, k, k)
	}
	for i, k := range keys {
		if !m.Delete(k) {
			t.Fatalf("delete %d failed", i)
		}
		for _, rest := range keys[i+1:] {
			if _, ok := m.Get(rest); !ok {
				t.Fatalf("after deleting %d keys, key %#x lost", i+1, rest)
			}
		}
	}
}

// --- Cuckoo specifics ----------------------------------------------------------

// TestCuckooEveryKeyAtCandidateSlot: the defining invariant — every key
// resides at one of its k candidate positions.
func TestCuckooEveryKeyAtCandidateSlot(t *testing.T) {
	m := newCuckoo(Config{InitialCapacity: 1 << 10, Seed: 15})
	rng := prng.NewXoshiro256(16)
	n := (1 << 10) * 9 / 10 // 90% load factor
	inserted := make([]uint64, 0, n)
	for len(inserted) < n {
		k := rng.Next()
		if isSentinelKey(k) {
			continue
		}
		if put(t, m, k, k) {
			inserted = append(inserted, k)
		}
	}
	for _, k := range inserted {
		found := false
		for j := 0; j < m.Ways(); j++ {
			if m.slots[m.pos(j, k)].key == k {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %#x not at any of its %d candidate slots", k, m.Ways())
		}
	}
}

// TestCuckooHighLoadFactorConstruction: CuckooH4 must reach 90% (the
// paper's sweep) with Mult and Murmur.
func TestCuckooHighLoadFactorConstruction(t *testing.T) {
	for _, f := range []hashfn.Family{hashfn.MultFamily{}, hashfn.MurmurFamily{}} {
		m := newCuckoo(Config{InitialCapacity: 1 << 12, Family: f, Seed: 17})
		n := (1 << 12) * 9 / 10
		for i := 1; i <= n; i++ {
			put(t, m, uint64(i)*0x9E3779B97F4A7C15+1, uint64(i))
		}
		if m.Len() != n {
			t.Fatalf("%s: built %d entries, want %d", f.Name(), m.Len(), n)
		}
		if lf := loadFactor(m); lf < 0.89 {
			t.Fatalf("%s: load factor %v", f.Name(), lf)
		}
	}
}

// TestCuckooRehashOnForcedCycle: with a tiny kick bound, construction of a
// growing table must recover via rehashes and still end correct.
func TestCuckooRehashOnForcedCycle(t *testing.T) {
	m := newCuckoo(Config{InitialCapacity: 64, MaxLoadFactor: 0.9, Seed: 18})
	m.maxKicks = 1 // pathological: almost any collision chain fails
	n := 48        // 75% of 64
	for i := 1; i <= n; i++ {
		put(t, m, uint64(i)*2654435761, uint64(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	if m.Rehashes() == 0 {
		t.Fatal("expected forced rehashes with maxKicks=1")
	}
	for i := 1; i <= n; i++ {
		if v, ok := m.Get(uint64(i) * 2654435761); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v after rehashes", i, v, ok)
		}
	}
}

// TestCuckooWaysValidation: k in [2, 8] is supported, outside panics.
func TestCuckooWaysValidation(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8} {
		m := newCuckooK(Config{InitialCapacity: 256, Seed: 19}, k)
		if m.Ways() != k {
			t.Fatalf("Ways = %d, want %d", m.Ways(), k)
		}
		for i := uint64(1); i <= 100; i++ {
			put(t, m, i, i)
		}
		if m.Len() != 100 {
			t.Fatalf("k=%d: Len = %d", k, m.Len())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("newCuckooK(.., 9) did not panic")
		}
	}()
	newCuckooK(Config{}, 9)
}

// TestCuckooLookupProbeBound: Get touches at most k slots — verified
// indirectly by checking misses terminate immediately even on a table with
// every slot occupied.
func TestCuckooLookupProbeBound(t *testing.T) {
	m := newCuckoo(Config{InitialCapacity: 64, Seed: 20})
	for i := uint64(1); m.Len() < 60; i++ {
		if _, err := m.Put(i, i); err != nil && !errors.Is(err, ErrFull) {
			t.Fatal(err)
		}
	}
	// All misses must return false (no infinite probing possible by
	// construction; this is a smoke check).
	for i := uint64(1000000); i < 1001000; i++ {
		if _, ok := m.Get(i); ok {
			t.Fatalf("phantom hit for %d", i)
		}
	}
}

// --- Chained specifics ----------------------------------------------------------

// chainedSchemes are the two directory layouts of the chained core.
var chainedSchemes = []Scheme{SchemeChained8, SchemeChained24}

// TestChained24InlinePromotion: deleting a bucket's first entry — a wide
// bucket's inline entry, promoting the chain head into the directory slot,
// or a pointer directory's head — keeps every other entry of the bucket.
func TestChained24InlinePromotion(t *testing.T) {
	for _, s := range chainedSchemes {
		t.Run(string(s), func(t *testing.T) {
			m := newChained(s, Config{InitialCapacity: 8, Seed: 21})
			// With 8 slots, colliding keys are easy to make: insert many
			// keys and delete aggressively.
			for i := uint64(1); i <= 64; i++ {
				put(t, m, i, i*10)
			}
			for i := uint64(1); i <= 64; i++ {
				if !m.Delete(i) {
					t.Fatalf("delete %d failed", i)
				}
				for j := i + 1; j <= 64; j++ {
					if v, ok := m.Get(j); !ok || v != j*10 {
						t.Fatalf("after deleting %d, key %d = %d,%v", i, j, v, ok)
					}
				}
			}
			if m.Overflow() != 0 {
				t.Fatalf("overflow = %d after emptying", m.Overflow())
			}
		})
	}
}

// TestChained8SlabReuse: delete must return entries to the slab free list
// so churn does not grow the footprint, in either directory layout.
func TestChained8SlabReuse(t *testing.T) {
	for _, s := range chainedSchemes {
		t.Run(string(s), func(t *testing.T) {
			m := newChained(s, Config{InitialCapacity: 64, Seed: 22})
			for i := uint64(1); i <= 64; i++ {
				put(t, m, i, i)
			}
			before := m.MemoryFootprint()
			for round := 0; round < 50; round++ {
				for i := uint64(1); i <= 64; i++ {
					m.Delete(i)
				}
				for i := uint64(1); i <= 64; i++ {
					put(t, m, i, i)
				}
			}
			if after := m.MemoryFootprint(); after != before {
				t.Fatalf("footprint grew under churn: %d -> %d", before, after)
			}
		})
	}
}

// TestChainLengthsAndOverflow checks the diagnostics exactly: the chain
// lengths sum to Len, and Overflow counts every entry outside the
// directory — all of them in the pointer layout, all but one per
// non-empty bucket in the wide one.
func TestChainLengthsAndOverflow(t *testing.T) {
	for _, s := range chainedSchemes {
		t.Run(string(s), func(t *testing.T) {
			m := newChained(s, Config{InitialCapacity: 16, Seed: 23})
			for i := uint64(1); i <= 64; i++ {
				put(t, m, i, i)
			}
			lengths := m.ChainLengths()
			sum := 0
			for _, l := range lengths {
				sum += l
			}
			if sum != m.Len() || m.Len() != 64 {
				t.Fatalf("chain lengths sum to %d, Len %d, want 64", sum, m.Len())
			}
			want := m.Len()
			if s == SchemeChained24 {
				want -= len(lengths)
			}
			if m.Overflow() != want {
				t.Fatalf("overflow = %d, want %d (%d non-empty buckets)", m.Overflow(), want, len(lengths))
			}
		})
	}
}

// --- Displacement / cluster diagnostics ----------------------------------------

func TestDisplacementsConsistency(t *testing.T) {
	lp := newKern(SchemeLP, Config{InitialCapacity: 1 << 10, Seed: 27})
	qp := newKern(SchemeQP, Config{InitialCapacity: 1 << 10, Seed: 27})
	rng := prng.NewXoshiro256(28)
	for i := 0; i < 700; i++ {
		k := rng.Next()
		put(t, lp, k, k)
		put(t, qp, k, k)
	}
	for name, ds := range map[string][]int{"LP": lp.Displacements(), "QP": qp.Displacements()} {
		if len(ds) != 700 {
			t.Fatalf("%s: %d displacements, want 700", name, len(ds))
		}
		for _, d := range ds {
			if d < 0 || d >= 1<<10 {
				t.Fatalf("%s: displacement %d out of range", name, d)
			}
		}
	}
	// Cluster lengths must sum to occupied slots (= size, no tombstones).
	sum := 0
	for _, c := range lp.ClusterLengths() {
		sum += c
	}
	if sum != 700 {
		t.Fatalf("cluster lengths sum to %d, want 700", sum)
	}
}

// TestClusterLengthsFullTable covers the all-slots-occupied edge case of
// the run detector (reachable only through internal construction: the
// public API always preserves one empty slot for probe termination).
func TestClusterLengthsFullTable(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 8, Seed: 29})
	for i := range m.slots {
		m.slots[i] = pair{uint64(i) + 1, 0}
	}
	cl := m.ClusterLengths()
	if len(cl) != 1 || cl[0] != 8 {
		t.Fatalf("full table clusters = %v, want [8]", cl)
	}
	// And the one-empty-slot invariant: filling via the public API stops
	// at capacity-1, where Put reports ErrFull and leaves the table as it
	// was.
	m2 := newKern(SchemeLP, Config{InitialCapacity: 8, Seed: 29})
	for i := uint64(1); i <= 7; i++ {
		put(t, m2, i, i)
	}
	if _, err := m2.Put(8, 8); !errors.Is(err, ErrFull) {
		t.Fatalf("Put on full table: err = %v, want ErrFull", err)
	}
	if m2.Len() != 7 || m2.Capacity() != 8 {
		t.Fatalf("failed Put moved the table: Len %d, Capacity %d", m2.Len(), m2.Capacity())
	}
}

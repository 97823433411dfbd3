package table

import (
	"errors"
	"fmt"
	"testing"

	"repro/hashfn"
	"repro/internal/prng"
)

// --- Linear probing specifics -----------------------------------------------

// TestLPDeleteEverythingLeavesAnEmptyTable: deleting every key of a
// clustered LP table leaves no tombstone and no occupied slot — the table
// a fresh one would be — and resurrects nothing.
func TestLPDeleteEverythingLeavesAnEmptyTable(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 1 << 10, Seed: 1})
	for i := uint64(1); i <= 512; i++ {
		put(t, m, i*2654435761, i)
	}
	for i := uint64(1); i <= 512; i++ {
		if !m.Delete(i * 2654435761) {
			t.Fatalf("delete of key %d failed", i)
		}
		if _, ok := m.Get(i * 2654435761); ok {
			t.Fatalf("deleted key %d still found", i)
		}
	}
	if m.Len() != 0 || m.Tombstones() != 0 {
		t.Fatalf("Len = %d, %d tombstones after deleting everything", m.Len(), m.Tombstones())
	}
	for i := 0; i < m.slotCount(); i++ {
		if k := m.keyAt(uint64(i)); k != emptyKey {
			t.Fatalf("slot %d holds %#x after deleting everything", i, k)
		}
	}
}

// TestLPRefillAfterDeletes: a growth-disabled table that is filled and
// emptied a hundred times over never reports ErrFull, so deletes give
// their slots back.
func TestLPRefillAfterDeletes(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 64, Seed: 2})
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

// TestChurnedTableEqualsFresh: a linear-sequence table that has deleted a
// live key and inserted a fresh one four times per slot is the table a
// fresh build of its final keys gives — no tombstone, the same occupied
// slots, the same total displacement and the same probes per miss —
// with growth off and on. Backward-shift deletion makes the occupied
// slots (and, for LP, everything but which key sits where) depend only on
// the key set.
func TestChurnedTableEqualsFresh(t *testing.T) {
	const slots = 1 << 14
	for _, s := range []Scheme{SchemeLP, SchemeLPSoA, SchemeRH} {
		for _, maxLF := range []float64{0, 0.9} {
			t.Run(fmt.Sprintf("%s/%v", s, maxLF), func(t *testing.T) {
				cfg := Config{InitialCapacity: slots, MaxLoadFactor: maxLF, Family: hashfn.MultFamily{}, Seed: 7}
				churned := newKern(s, cfg)
				keys := prng.NewSplitMix64(7) // distinct outputs: every key drawn is fresh
				pick := prng.NewXoshiro256(7)
				live := make([]uint64, slots/2)
				for i := range live {
					live[i] = keys.Next()
					put(t, churned, live[i], uint64(i))
				}
				for r := 0; r < 4*slots; r++ {
					i := pick.Intn(len(live))
					if !churned.Delete(live[i]) {
						t.Fatalf("round %d: live key %#x not deleted", r, live[i])
					}
					live[i] = keys.Next()
					put(t, churned, live[i], uint64(r))
				}
				fresh := newKern(s, cfg)
				for i, k := range live {
					put(t, fresh, k, uint64(i))
				}
				if n := churned.Tombstones(); n != 0 {
					t.Fatalf("%d tombstones after churn", n)
				}
				if churned.slotCount() != fresh.slotCount() {
					t.Fatalf("churned capacity %d, fresh %d", churned.slotCount(), fresh.slotCount())
				}
				for i := 0; i < fresh.slotCount(); i++ {
					if a, b := churned.keyAt(uint64(i)) != emptyKey, fresh.keyAt(uint64(i)) != emptyKey; a != b {
						t.Fatalf("slot %d: occupied %v churned, %v fresh", i, a, b)
					}
				}
				if a, b := sum(churned.Displacements()), sum(fresh.Displacements()); a != b {
					t.Fatalf("total displacement %d churned, %d fresh", a, b)
				}
				misses := make([]uint64, 20000)
				for i := range misses {
					misses[i] = keys.Next()
				}
				if a, b := missProbes(churned, misses), missProbes(fresh, misses); a != b {
					t.Fatalf("probes per miss %.3f churned, %.3f fresh",
						float64(a)/float64(len(misses)), float64(b)/float64(len(misses)))
				}
			})
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// missProbes counts the slots lookups of the absent keys examine.
func missProbes(c *kern, absent []uint64) int {
	n := 0
	for _, k := range absent {
		c.ProbeSlots(k, func(int) bool { n++; return true })
	}
	return n
}

// TestBackshiftWrapsAroundTheLastSlot deletes, one at a time, each key of
// a cluster that runs from the table's last slots into slot 0: whichever
// is deleted, every other key stays reachable and the slots it leaves
// occupied are those of a fresh build. Past the wrap, an entry homed at
// or before the hole moves back across slot 0 and one homed past the hole
// stays, which a home test that is not cyclic gets wrong.
func TestBackshiftWrapsAroundTheLastSlot(t *testing.T) {
	const slots = 16
	// Homes of each cluster's keys, in insertion order. In the first the
	// key homed at 15 lands in slot 0; in the second every key is home.
	clusters := [][]uint64{{13, 14, 14, 15, 0, 0, 1}, {14, 15, 0, 1}}
	for _, s := range []Scheme{SchemeLP, SchemeLPSoA, SchemeRH} {
		for c, homes := range clusters {
			t.Run(fmt.Sprintf("%s/%d", s, c), func(t *testing.T) {
				cfg := Config{InitialCapacity: slots, Seed: 11}
				probe := newKern(s, cfg)
				rng := prng.NewSplitMix64(11)
				keys := make([]uint64, len(homes))
				for i, h := range homes {
					for keys[i] = rng.Next(); probe.home(keys[i]) != h; keys[i] = rng.Next() {
					}
				}
				build := func(skip int) *kern {
					m := newKern(s, cfg)
					for i, k := range keys {
						if i != skip {
							put(t, m, k, uint64(i))
						}
					}
					return m
				}
				if m := build(-1); m.keyAt(slots-1) == emptyKey || m.keyAt(0) == emptyKey {
					t.Fatal("the cluster does not cross from the last slot into slot 0")
				}
				for del := range keys {
					m, fresh := build(-1), build(del)
					if !m.Delete(keys[del]) {
						t.Fatalf("delete of key %d (home %d) failed", del, homes[del])
					}
					for i, k := range keys {
						if _, ok := m.Get(k); ok != (i != del) {
							t.Fatalf("after deleting key %d (home %d): Get of key %d (home %d) = %v", del, homes[del], i, homes[i], ok)
						}
					}
					for i := 0; i < slots; i++ {
						if a, b := m.keyAt(uint64(i)) != emptyKey, fresh.keyAt(uint64(i)) != emptyKey; a != b {
							t.Fatalf("after deleting key %d (home %d): slot %d occupied %v, fresh build %v", del, homes[del], i, a, b)
						}
					}
				}
			})
		}
	}
}

// TestLPClusterConnectivity: after arbitrary deletes, every resident key
// must remain reachable (the invariant the backward shift protects).
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

// TestQPFullTableInsert fills a QP table to capacity-1, the most any
// kernel table takes; the coverage guarantee means every insert finds one
// of the remaining empty slots, and the last slot is refused.
func TestQPFullTableInsert(t *testing.T) {
	const l = 256
	m := newKern(SchemeQP, Config{InitialCapacity: l, Seed: 5})
	for i := uint64(1); i < l; i++ {
		put(t, m, i*0x9E3779B97F4A7C15, i)
	}
	if m.Len() != l-1 {
		t.Fatalf("Len = %d, want %d", m.Len(), l-1)
	}
	last := uint64(l)
	if _, err := tryPut(m, last*0x9E3779B97F4A7C15, last); !errors.Is(err, ErrFull) {
		t.Fatalf("insert into the last empty slot: err = %v, want ErrFull", err)
	}
	for i := uint64(1); i < l; i++ {
		if v, ok := m.Get(i * 0x9E3779B97F4A7C15); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v at full table", i, v, ok)
		}
	}
	// Unsuccessful lookups on a full table must terminate.
	if _, ok := m.Get(0x1234567); ok {
		t.Fatal("phantom hit")
	}
}

// TestQPTombstoneChurnFixedCapacity: delete/insert cycles on a fixed
// table held at capacity-1, where every insert after a delete finds the
// tombstone between the table and its last empty slot and sheds it.
func TestQPTombstoneChurnFixedCapacity(t *testing.T) {
	const l = 128
	m := newKern(SchemeQP, Config{InitialCapacity: l, Seed: 6})
	for i := uint64(1); i < l; i++ { // all but the empty slot kept
		put(t, m, i, i)
	}
	for round := uint64(0); round < 200; round++ {
		k := round%(l-1) + 1
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
	if m.Len() != l-1 {
		t.Fatalf("Len = %d, want %d", m.Len(), l-1)
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
		if _, err := tryPut(m, i, i); err != nil && !errors.Is(err, ErrFull) {
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

// TestChainedFootprintAcrossDoublings: a doubling collects the entries,
// resets the slab and relinks them, so a table grown from 8 buckets
// through five doublings is no larger than a fresh table of its final size
// holding the same keys: the same directory, no more slab, no more
// overflow entries. (Both slabs have the smallest chunk size.)
func TestChainedFootprintAcrossDoublings(t *testing.T) {
	for _, s := range chainedSchemes {
		t.Run(string(s), func(t *testing.T) {
			cfg := Config{InitialCapacity: 8, MaxLoadFactor: 0.9, Seed: 24}
			grown := newChained(s, cfg)
			rng := prng.NewXoshiro256(25)
			var keys []uint64
			for grown.Rehashes() < 5 && len(keys) < 1<<10 {
				k := rng.Next() | 1
				put(t, grown, k, k)
				keys = append(keys, k)
			}
			cfg.InitialCapacity = grown.Capacity()
			fresh := newChained(s, cfg)
			for _, k := range keys {
				put(t, fresh, k, k)
			}
			if fresh.Rehashes() != 0 || grown.Capacity() != 8<<5 {
				t.Fatalf("grown to %d buckets; the fresh table rehashed %d times", grown.Capacity(), fresh.Rehashes())
			}
			if g, f := grown.MemoryFootprint(), fresh.MemoryFootprint(); g > f {
				t.Errorf("footprint %d B after five doublings, %d B fresh", g, f)
			}
			if g, f := grown.Overflow(), fresh.Overflow(); g > f {
				t.Errorf("overflow %d after five doublings, %d fresh", g, f)
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

// TestClusterLengthsFullTable covers the fullest table the API builds:
// capacity-1 occupied slots form one run that wraps around the single
// empty slot the detector anchors at, and the next Put reports ErrFull
// and leaves the table as it was.
func TestClusterLengthsFullTable(t *testing.T) {
	m := newKern(SchemeLP, Config{InitialCapacity: 8, Seed: 29})
	for i := uint64(1); i <= 7; i++ {
		put(t, m, i, i)
	}
	if cl := m.ClusterLengths(); len(cl) != 1 || cl[0] != 7 {
		t.Fatalf("full table clusters = %v, want [7]", cl)
	}
	if _, err := tryPut(m, 8, 8); !errors.Is(err, ErrFull) {
		t.Fatalf("Put on full table: err = %v, want ErrFull", err)
	}
	if m.Len() != 7 || m.Capacity() != 8 {
		t.Fatalf("failed Put moved the table: Len %d, Capacity %d", m.Len(), m.Capacity())
	}
	if cl := m.ClusterLengths(); len(cl) != 1 || cl[0] != 7 {
		t.Fatalf("clusters after the refused Put = %v, want [7]", cl)
	}
}

// TestKernelTablesRefuseTheLastSlotWithErrFull: every kernel scheme keeps
// one slot empty. A growth-disabled table takes capacity-1 keys, refuses
// the next with ErrFull and leaves itself as it was, and still answers
// absent keys, in the batch walks too. A QP table whose delete left a
// tombstone takes a fresh key by shedding it.
func TestKernelTablesRefuseTheLastSlotWithErrFull(t *testing.T) {
	const l = 256
	key := func(i uint64) uint64 { return i * 0x9E3779B97F4A7C15 }
	for _, s := range KernelSchemes() {
		t.Run(string(s), func(t *testing.T) {
			m := mustNew(s, Config{InitialCapacity: l, Seed: 5})
			for i := uint64(1); i < l; i++ {
				put(t, m, key(i), i)
			}
			if _, err := tryPut(m, key(l), l); !errors.Is(err, ErrFull) {
				t.Fatalf("insert into the last empty slot: err = %v, want ErrFull", err)
			}
			if m.Len() != l-1 || m.Capacity() != l {
				t.Fatalf("refused insert moved the table: Len %d, Capacity %d", m.Len(), m.Capacity())
			}
			for i := uint64(1); i < l; i++ {
				if v, ok := m.Get(key(i)); !ok || v != i {
					t.Fatalf("Get(%#x) = %d,%v", key(i), v, ok)
				}
			}
			absent := make([]uint64, 2*BatchWidth+5)
			for i := range absent {
				absent[i] = key(uint64(l + i))
			}
			if hits := m.GetBatch(absent, make([]uint64, len(absent)), make([]bool, len(absent))); hits != 0 {
				t.Fatalf("GetBatch finds %d absent keys", hits)
			}
			if s != SchemeQP {
				return
			}
			if !m.Delete(key(1)) || kernOf(t, m).Tombstones() != 1 {
				t.Fatalf("delete left %d tombstones, want 1", kernOf(t, m).Tombstones())
			}
			put(t, m, key(l), l)
			if m.Len() != l-1 || kernOf(t, m).Tombstones() != 0 {
				t.Fatalf("after the fresh key: Len %d, %d tombstones, want %d and 0", m.Len(), kernOf(t, m).Tombstones(), l-1)
			}
			if _, ok := m.Get(key(1)); ok {
				t.Fatal("the deleted key came back")
			}
		})
	}
}

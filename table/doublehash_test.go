package table

import (
	"testing"

	"repro/internal/prng"
)

// TestDHStrideCoverage verifies the coverage guarantee behind dhSeq: an
// odd stride is coprime to a power-of-two capacity, so from any home
// slot the sequence visits every slot exactly once in l probes — the
// property that transfers QP's termination and 100%-fill behavior to DH.
func TestDHStrideCoverage(t *testing.T) {
	for _, l := range []int{8, 64, 1024} {
		mask := uint64(l - 1)
		for _, stride := range []uint64{1, 3, uint64(l - 1), uint64(l + 7)} {
			stride |= 1
			seen := make([]bool, l)
			pos := uint64(5) % uint64(l)
			count := 0
			for step := 0; step < l; step++ {
				if !seen[pos] {
					seen[pos] = true
					count++
				}
				pos = (pos + stride) & mask
			}
			if count != l {
				t.Fatalf("l=%d stride=%d: visited %d distinct slots, want %d", l, stride, count, l)
			}
		}
	}
}

// TestDHFullTableInsert fills a DH table to 100% capacity; the coverage
// guarantee means every insert must find the remaining empty slots, and
// lookups (hits and misses) must terminate on the full table.
func TestDHFullTableInsert(t *testing.T) {
	const l = 256
	m := newDoubleHashing(Config{InitialCapacity: l, Seed: 5})
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
	if _, ok := m.Get(0x1234567); ok {
		t.Fatal("phantom hit")
	}
}

// TestDHTombstoneChurnFixedCapacity mirrors the QP churn test: delete /
// insert cycles on a 100% full fixed-capacity table exercise the
// full-sweep tombstone-recycling path of the kernel.
func TestDHTombstoneChurnFixedCapacity(t *testing.T) {
	const l = 128
	m := newDoubleHashing(Config{InitialCapacity: l, Seed: 6})
	for i := uint64(1); i <= l; i++ {
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
		if !m.Delete(nk) {
			t.Fatalf("round %d: cleanup delete failed", round)
		}
		put(t, m, k, k)
	}
	if m.Len() != l {
		t.Fatalf("Len = %d, want %d", m.Len(), l)
	}
}

// TestDHNoClusterCarryover spot-checks DH's structural point: keys
// sharing a home slot diverge immediately (no secondary clustering), so
// mean displacement at moderate load stays small and Stats can read it
// through the generic replaying Displacements.
func TestDHDisplacementsAndStats(t *testing.T) {
	m := newDoubleHashing(Config{InitialCapacity: 1 << 10, Seed: 9})
	rng := prng.NewXoshiro256(10)
	for i := 0; i < 700; i++ {
		k := rng.Next()
		if isSentinelKey(k) {
			continue
		}
		put(t, m, k, k)
	}
	ds := m.Displacements()
	if len(ds) != m.Len() {
		t.Fatalf("%d displacements for %d entries", len(ds), m.Len())
	}
	for _, d := range ds {
		if d < 0 || d >= 1<<10 {
			t.Fatalf("displacement %d out of range", d)
		}
	}
	st := StatsOf(m)
	if st.Scheme != "DH" || st.Function != "Mult" {
		t.Fatalf("Stats identity = %q/%q", st.Scheme, st.Function)
	}
	if st.MeanProbe < 1 || st.MeanProbe > 3 {
		t.Fatalf("DH mean probe %v at ~68%% load; expected small (no secondary clustering)", st.MeanProbe)
	}
}

// TestDHExcludedFromRecommend pins the paper-fidelity decision: the
// Figure 8 graph recommends only the paper's schemes, never the DH
// extension, over a grid covering every branch of the graph.
func TestDHExcludedFromRecommend(t *testing.T) {
	for _, lf := range []float64{0.3, 0.55, 0.75, 0.85, 0.95} {
		for _, up := range []int{0, 30, 60, 100} {
			for _, wh := range []bool{false, true} {
				for _, dyn := range []bool{false, true} {
					for _, dense := range []bool{false, true} {
						s, _, err := Recommend(Workload{
							LoadFactor:      lf,
							UnsuccessfulPct: up,
							WriteHeavy:      wh,
							Dynamic:         dyn,
							Dense:           dense,
						})
						if err != nil {
							t.Fatal(err)
						}
						if s == SchemeDH || s == SchemeLPSoA {
							t.Fatalf("Recommend returned extension scheme %s", s)
						}
					}
				}
			}
		}
	}
}

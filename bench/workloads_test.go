package bench

import (
	"testing"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

func TestGenRWTapeComposition(t *testing.T) {
	gen := dist.New(dist.Sparse, 5)
	const initial, ops = 1000, 20000
	tape := GenRWTape(gen, initial, ops, 40, 11)
	if tape.Len() != ops {
		t.Fatalf("tape length %d", tape.Len())
	}
	// Composition: ~40% updates split 4:1, ~60% lookups split 3:1.
	updates := tape.Inserts + tape.Deletes
	lookups := tape.Hits + tape.Misses
	if updates+lookups != ops {
		t.Fatalf("counts do not add up: %d+%d != %d", updates, lookups, ops)
	}
	if frac := float64(updates) / ops; frac < 0.37 || frac > 0.43 {
		t.Fatalf("update fraction %v, want ~0.40", frac)
	}
	if r := float64(tape.Inserts) / float64(tape.Deletes); r < 3.5 || r > 4.6 {
		t.Fatalf("insert:delete = %v, want ~4", r)
	}
	if r := float64(tape.Hits) / float64(tape.Misses); r < 2.6 || r > 3.4 {
		t.Fatalf("hit:miss = %v, want ~3", r)
	}
	if tape.FinalLive != initial+tape.Inserts-tape.Deletes {
		t.Fatalf("FinalLive inconsistent: %d", tape.FinalLive)
	}
	// Determinism.
	tape2 := GenRWTape(gen, initial, ops, 40, 11)
	for i := range tape.Keys {
		if tape.Keys[i] != tape2.Keys[i] || tape.Kinds[i] != tape2.Kinds[i] {
			t.Fatal("tape generation is not deterministic")
		}
	}
}

func TestGenRWTapeEdgeCases(t *testing.T) {
	gen := dist.New(dist.Sparse, 5)
	// 0% updates: lookups only.
	tape := GenRWTape(gen, 100, 1000, 0, 1)
	if tape.Inserts+tape.Deletes != 0 {
		t.Fatal("0% updates produced updates")
	}
	// 100% updates: no lookups.
	tape = GenRWTape(gen, 100, 1000, 100, 1)
	if tape.Hits+tape.Misses != 0 {
		t.Fatal("100% updates produced lookups")
	}
	// Starting empty: deletes must fall back to inserts.
	tape = GenRWTape(gen, 0, 100, 100, 1)
	if tape.Deletes > tape.Inserts {
		t.Fatal("deletes outnumber inserts from an empty start")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("updatePct > 100 did not panic")
		}
	}()
	GenRWTape(gen, 0, 10, 101, 1)
}

func TestInitialCapacityFor(t *testing.T) {
	// The paper starts at ~47% load factor: initial*2 < capacity needed.
	for _, n := range []int{1, 100, 1 << 16} {
		c := initialCapacityFor(n)
		if c&(c-1) != 0 {
			t.Fatalf("capacity %d not a power of two", c)
		}
		if float64(n)/float64(c) > 0.5 {
			t.Fatalf("initial load factor %v > 0.5", float64(n)/float64(c))
		}
	}
}

func TestNewWORMTableChainedSizing(t *testing.T) {
	m, err := NewWORMTable(table.SchemeChained24, hashfn.MultFamily{}, 1<<16, 0.35, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != chained24DirectorySlots(0.35, 1<<16) {
		t.Fatalf("directory = %d slots", m.Capacity())
	}
	if _, err := NewWORMTable("bogus", hashfn.MultFamily{}, 1<<10, 0.5, 1); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// TestChainedDirectorySizing pins the §4.5 budget arithmetic at the
// paper's own scale (2^30 slots).
func TestChainedDirectorySizing(t *testing.T) {
	const l = 1 << 30
	// Paper Figure 3: ChainedH8 directory is 2^30 slots at 25/35%, 2^29 at 45%.
	if got := chained8DirectorySlots(0.25, l); got != 1<<30 {
		t.Errorf("Chained8 at 25%%: %d slots, want 2^30", got)
	}
	if got := chained8DirectorySlots(0.35, l); got != 1<<30 {
		t.Errorf("Chained8 at 35%%: %d slots, want 2^30", got)
	}
	if got := chained8DirectorySlots(0.45, l); got != 1<<29 {
		t.Errorf("Chained8 at 45%%: %d slots, want 2^29", got)
	}
	// ChainedH24 directory is 2^29 across the low load factors.
	for _, a := range []float64{0.25, 0.35, 0.45} {
		if got := chained24DirectorySlots(a, l); got != 1<<29 {
			t.Errorf("Chained24 at %.0f%%: %d slots, want 2^29", a*100, got)
		}
	}
	// §5: chained fits the budget up to ~50% and fails at >= 70%.
	if !fitsChained24Budget(0.5, l) {
		t.Error("Chained24 should fit the budget at 50%")
	}
	if fitsChained24Budget(0.7, l) {
		t.Error("Chained24 should exceed the budget at 70%")
	}
	if fitsChained24Budget(0.9, l) {
		t.Error("Chained24 should exceed the budget at 90%")
	}
	// Figure 4 drops ChainedH24 by this model: at every capacity the
	// figures run, it must keep exactly the points at or below 50%.
	for slots := 4; slots <= 30; slots++ {
		for _, lf := range AllLoadFactors {
			if got := fitsChained24Budget(float64(lf)/100, 1<<slots); got != (lf <= 50) {
				t.Errorf("Chained24 at %d%% of 2^%d slots: fits = %v, want %v", lf, slots, got, lf <= 50)
			}
		}
	}
}

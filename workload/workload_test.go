package workload

import (
	"testing"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

func TestRunWORMValidation(t *testing.T) {
	if _, err := RunWORM(WORMConfig{Capacity: 0, LoadFactor: 0.5}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := RunWORM(WORMConfig{Capacity: 1 << 10, LoadFactor: 0}); err == nil {
		t.Error("zero load factor accepted")
	}
	if _, err := RunWORM(WORMConfig{Capacity: 1 << 10, LoadFactor: 1.5}); err == nil {
		t.Error("load factor > 1 accepted")
	}
}

// TestRunWORMAllPoints executes a miniature version of the paper's full
// WORM grid: every scheme x function x distribution at a low and a high
// load factor. The runner itself validates hit counts and build sizes, so
// success here is a meaningful end-to-end check.
func TestRunWORMAllPoints(t *testing.T) {
	const capacity = 1 << 10
	for _, s := range table.Schemes() {
		for _, f := range hashfn.Families() {
			for _, d := range dist.Kinds() {
				for _, lf := range []float64{0.25, 0.9} {
					if (s == table.SchemeChained8 || s == table.SchemeChained24) && lf > 0.5 {
						continue // over the §4.5 budget by design
					}
					res, err := RunWORM(WORMConfig{
						Scheme:     s,
						Family:     f,
						Dist:       d,
						Capacity:   capacity,
						LoadFactor: lf,
						Mixes:      []int{0, 50, 100},
						Lookups:    2048,
						Seed:       7,
					})
					if err != nil {
						t.Fatalf("%s/%s/%s lf=%v: %v", s, f.Name(), d, lf, err)
					}
					if res.N != int(lf*capacity) {
						t.Fatalf("%s: N = %d", s, res.N)
					}
					if res.InsertMops <= 0 {
						t.Fatalf("%s: non-positive insert throughput", s)
					}
					for _, u := range []int{0, 50, 100} {
						if res.LookupMops[u] <= 0 {
							t.Fatalf("%s: non-positive lookup throughput at u=%d", s, u)
						}
					}
					if res.MemoryBytes == 0 {
						t.Fatalf("%s: zero memory footprint", s)
					}
				}
			}
		}
	}
}

// TestWORMChainedBudget: chained schemes at low load factors must fit the
// §4.5 budget; the harness flags them otherwise.
func TestWORMChainedBudget(t *testing.T) {
	res, err := RunWORM(WORMConfig{
		Scheme:     table.SchemeChained24,
		Family:     hashfn.MultFamily{},
		Dist:       dist.Sparse,
		Capacity:   1 << 14,
		LoadFactor: 0.35,
		Mixes:      []int{0},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverBudget {
		t.Fatalf("Chained24 at 35%% flagged over budget (%d bytes)", res.MemoryBytes)
	}
	oaCap := 1 << 14
	budget := uint64(table.ChainedBudgetFactor * 16 * float64(oaCap))
	if res.MemoryBytes > budget {
		t.Fatalf("footprint %d exceeds budget %d but was not flagged", res.MemoryBytes, budget)
	}
}

func TestWormProbeTape(t *testing.T) {
	gen := dist.New(dist.Dense, 1)
	present := gen.Keys(100)
	for _, u := range []int{0, 25, 50, 75, 100} {
		probes, wantHits := wormProbeTape(gen, present, 100, 200, u, 9)
		if len(probes) != 200 {
			t.Fatalf("u=%d: tape length %d", u, len(probes))
		}
		if wantHits != 200-200*u/100 {
			t.Fatalf("u=%d: wantHits = %d", u, wantHits)
		}
		presentSet := map[uint64]bool{}
		for _, k := range present {
			presentSet[k] = true
		}
		hits := 0
		for _, k := range probes {
			if presentSet[k] {
				hits++
			}
		}
		if hits != wantHits {
			t.Fatalf("u=%d: tape contains %d present keys, want %d", u, hits, wantHits)
		}
	}
}

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

// TestRunRWAllSchemes replays one shared tape against every scheme and
// relies on the runner's internal validation (hit/miss counts, final
// sizes).
func TestRunRWAllSchemes(t *testing.T) {
	gen := dist.New(dist.Sparse, 21)
	const initial, ops = 2000, 30000
	tape := GenRWTape(gen, initial, ops, 25, 22)
	for _, s := range table.Schemes() {
		for _, grow := range []float64{0.5, 0.9} {
			res, err := RunRW(RWConfig{
				Scheme:      s,
				Family:      hashfn.MultFamily{},
				Dist:        dist.Sparse,
				InitialKeys: initial,
				Ops:         ops,
				UpdatePct:   25,
				GrowAt:      grow,
				Seed:        21,
				Tape:        tape,
			})
			if err != nil {
				t.Fatalf("%s grow=%v: %v", s, grow, err)
			}
			if res.Mops <= 0 || res.MemoryBytes == 0 {
				t.Fatalf("%s grow=%v: degenerate result %+v", s, grow, res)
			}
			if res.FinalLen != initial+tape.Inserts-tape.Deletes {
				t.Fatalf("%s: final length %d", s, res.FinalLen)
			}
		}
	}
}

func TestRunRWValidation(t *testing.T) {
	if _, err := RunRW(RWConfig{GrowAt: 0}); err == nil {
		t.Error("GrowAt 0 accepted")
	}
	if _, err := RunRW(RWConfig{GrowAt: 1.2}); err == nil {
		t.Error("GrowAt > 1 accepted")
	}
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
	if m.Capacity() != table.Chained24DirectorySlots(0.35, 1<<16) {
		t.Fatalf("directory = %d slots", m.Capacity())
	}
	if _, err := NewWORMTable("bogus", hashfn.MultFamily{}, 1<<10, 0.5, 1); err == nil {
		t.Error("bogus scheme accepted")
	}
}

package bench

import (
	"testing"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
	"repro/workload"
)

func TestRunWORMValidation(t *testing.T) {
	opt := tinyOpts().withDefaults()
	c := contender{scheme: table.SchemeLP, family: hashfn.MultFamily{}}
	for _, p := range []struct{ capacity, lf int }{{0, 50}, {1 << 10, 0}, {1 << 10, 150}} {
		if err := wormPoint(opt, c, dist.Dense, p.capacity, p.lf, newWORMSeries(c.label())); err == nil {
			t.Errorf("capacity %d at lf=%d%% accepted", p.capacity, p.lf)
		}
	}
}

// TestRunWORMAllPoints executes a miniature version of the paper's full
// WORM grid: every scheme x function x distribution at a low and a high
// load factor. The point itself validates hit counts and build sizes, so
// success here is a meaningful end-to-end check.
func TestRunWORMAllPoints(t *testing.T) {
	const capacity = 1 << 10
	opt := Options{Lookups: 2048, Seed: 7}.withDefaults()
	for _, c := range allFamilies(table.Schemes()...) {
		for _, d := range dist.Kinds() {
			s := newWORMSeries(c.label())
			for _, lf := range []int{25, 90} {
				if (c.scheme == table.SchemeChained8 || c.scheme == table.SchemeChained24) && lf > 50 {
					continue // over the §4.5 budget by design
				}
				if err := wormPoint(opt, c, d, capacity, lf, s); err != nil {
					t.Fatalf("%s/%s lf=%d: %v", c.label(), d, lf, err)
				}
				if s.InsertMops[lf] <= 0 {
					t.Fatalf("%s: non-positive insert throughput", c.label())
				}
				for _, u := range Mixes {
					if s.LookupMops[lf][u] <= 0 {
						t.Fatalf("%s: non-positive lookup throughput at u=%d", c.label(), u)
					}
				}
				if s.MemoryBytes[lf] == 0 {
					t.Fatalf("%s: zero memory footprint", c.label())
				}
			}
		}
	}
}

// TestWORMChainedBudget: chained schemes at low load factors must fit the
// §4.5 budget; the harness flags them otherwise.
func TestWORMChainedBudget(t *testing.T) {
	capacity := 1 << 14
	c := contender{scheme: table.SchemeChained24, family: hashfn.MultFamily{}}
	s := newWORMSeries(c.label())
	if err := wormPoint(Options{Seed: 3}.withDefaults(), c, dist.Sparse, capacity, 35, s); err != nil {
		t.Fatal(err)
	}
	if s.OverBudget[35] {
		t.Fatalf("Chained24 at 35%% flagged over budget (%d bytes)", s.MemoryBytes[35])
	}
	budget := uint64(table.ChainedBudgetFactor * 16 * float64(capacity))
	if s.MemoryBytes[35] > budget {
		t.Fatalf("footprint %d exceeds budget %d but was not flagged", s.MemoryBytes[35], budget)
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

// TestRunRWAllSchemes replays one shared tape against every scheme and
// relies on the point's internal validation (hit/miss counts, final
// sizes).
func TestRunRWAllSchemes(t *testing.T) {
	const initial, ops, seed = 2000, 30000, 21
	tape := workload.GenRWTape(dist.New(dist.Sparse, seed), initial, ops, 25, 22)
	opt := Options{RWInitial: initial}.withDefaults()
	for _, c := range withFamilies([]hashfn.Family{hashfn.MultFamily{}}, table.Schemes()...) {
		for _, grow := range []int{50, 90} {
			s := &RWSeries{Label: c.label(), Mops: map[int]float64{}, MemoryBytes: map[int]uint64{}}
			if err := rwPoint(opt, c, tape, seed, grow, 25, s); err != nil {
				t.Fatalf("%s grow=%d: %v", c.label(), grow, err)
			}
			if s.Mops[25] <= 0 || s.MemoryBytes[25] == 0 {
				t.Fatalf("%s grow=%d: degenerate result %+v", c.label(), grow, s)
			}
		}
	}
}

func TestRunRWValidation(t *testing.T) {
	opt := tinyOpts().withDefaults()
	c := contender{scheme: table.SchemeLP, family: hashfn.MultFamily{}}
	s := &RWSeries{Mops: map[int]float64{}, MemoryBytes: map[int]uint64{}}
	for _, grow := range []int{0, 120} {
		if err := rwPoint(opt, c, nil, 1, grow, 25, s); err == nil {
			t.Errorf("grow-at %d%% accepted", grow)
		}
	}
}

package bench

import (
	"fmt"
	"time"

	"repro/dist"
	"repro/table"
)

// runWORMFigure executes one WORM figure: every contender at every load
// factor under every distribution of dists. skip, when non-nil, excludes
// (contender, load factor) points, mirroring the paper's Figure 1 subsets.
func runWORMFigure(opt Options, name string, dists []dist.Kind, contenders []contender, lfs []int, skip func(contender, int) bool) ([]WORMExperiment, error) {
	var exps []WORMExperiment
	for _, d := range dists {
		exp := WORMExperiment{Dist: d}
		for _, c := range contenders {
			s := newWORMSeries(c.label())
			for _, lf := range lfs {
				if skip != nil && skip(c, lf) {
					continue
				}
				if err := wormPoint(opt, c, d, opt.Capacity, lf, s); err != nil {
					return nil, fmt.Errorf("bench: %s %s/%s lf=%d: %w", name, c.label(), d, lf, err)
				}
				opt.logf("%s %-18s %-6s lf=%2d%%: insert %6.1f Mops, lookup(u=0) %6.1f Mops, mem %d MB",
					name, c.label(), d, lf, s.InsertMops[lf], s.LookupMops[lf][0], s.MemoryBytes[lf]>>20)
			}
			exp.Series = append(exp.Series, s)
		}
		exps = append(exps, exp)
	}
	return exps, nil
}

// wormPoint runs one WORM point (§5) and writes it into s at load factor
// lf: a timed build of lf% of capacity keys drawn from d, then one timed
// probe pass per lookup mix. Each throughput is averaged over opt.Repeats
// runs with derived seeds (§4.2); memory comes from the last run. Every
// contender is timed through Put/Get on the Table interface. A build that
// does not fill the table exactly, or a mix that does not hit exactly its
// present keys, is an error.
func wormPoint(opt Options, c contender, d dist.Kind, capacity, lf int, s *WORMSeries) error {
	if capacity <= 0 {
		return fmt.Errorf("WORM capacity must be positive, got %d", capacity)
	}
	if lf <= 0 || lf >= 100 {
		return fmt.Errorf("WORM load factor must be in (0,100)%%, got %d%%", lf)
	}
	n := capacity * lf / 100
	lookups := opt.Lookups
	if lookups <= 0 {
		lookups = n
	}
	repeats := float64(opt.Repeats)
	// The paper drops chained tables over the §4.5 memory budget (110% of
	// the open-addressing footprint).
	budget := uint64(chainedBudget(capacity))
	chained := c.scheme == table.SchemeChained8 || c.scheme == table.SchemeChained24
	var insertMops float64
	var mem uint64
	over := false
	lookupMops := make(map[int]float64, len(Mixes))
	for r := 0; r < opt.Repeats; r++ {
		seed := opt.Seed + uint64(r)*0x9e3779b9
		m, err := NewWORMTable(c.scheme, c.family, capacity, float64(lf)/100, seed)
		if err != nil {
			return err
		}

		gen := dist.New(d, seed)
		keys := dist.Shuffled(gen.Keys(n), seed+1)
		start := time.Now()
		for i, k := range keys {
			if _, _, err := m.RMW(k, uint64(i), true, nil); err != nil {
				return fmt.Errorf("WORM build: %w", err)
			}
		}
		insertMops += mops(n, time.Since(start)) / repeats
		if m.Len() != n {
			return fmt.Errorf("WORM build left %d entries, want %d", m.Len(), n)
		}

		for _, u := range Mixes {
			probes, wantHits := wormProbeTape(gen, keys, n, lookups, u, seed+uint64(u)+2)
			hits := 0
			var sink uint64
			start = time.Now()
			for _, k := range probes {
				if v, ok := m.Get(k); ok {
					hits++
					sink ^= v
				}
			}
			elapsed := time.Since(start)
			_ = sink
			if hits != wantHits {
				return fmt.Errorf("WORM probe at %d%% unsuccessful: got %d hits, want %d", u, hits, wantHits)
			}
			lookupMops[u] += mops(len(probes), elapsed) / repeats
		}

		mem = m.MemoryFootprint()
		over = over || (chained && mem > budget)
	}
	s.InsertMops[lf], s.LookupMops[lf] = insertMops, lookupMops
	s.MemoryBytes[lf], s.OverBudget[lf] = mem, over
	return nil
}

// wormProbeTape builds a probe-key tape of the requested length where
// unsuccessfulPct percent of keys are absent from the table (drawn from the
// same distribution at indexes >= n) and the rest are present keys. The
// tape is shuffled so hits and misses interleave randomly.
func wormProbeTape(gen dist.Generator, present []uint64, n, lookups, unsuccessfulPct int, seed uint64) (probes []uint64, wantHits int) {
	miss := lookups * unsuccessfulPct / 100
	hit := lookups - miss
	probes = make([]uint64, 0, lookups)
	for i := 0; i < hit; i++ {
		probes = append(probes, present[i%len(present)])
	}
	probes = append(probes, gen.AbsentKeys(n, miss)...)
	return dist.Shuffled(probes, seed), hit
}

// mops converts an operation count and duration into millions of
// operations per second.
func mops(ops int, d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(ops) / 1e6 / s
}

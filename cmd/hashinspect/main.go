// Command hashinspect builds one table at a chosen design point and prints
// the internal statistics behind the paper's analysis: displacement
// distribution (mean/variance/max/total), cluster lengths for the probing
// schemes, chain lengths and collision rate for the chained schemes, and —
// for linear probing — the measured probe lengths next to Knuth's formulas.
//
// Usage:
//
//	hashinspect -scheme LP -fn Mult -dist Sparse -slots 20 -load-factor 0.9
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/bench"
	"repro/dist"
	"repro/hashfn"
	"repro/stats"
	"repro/table"
)

func main() {
	var (
		scheme     = flag.String("scheme", "LP", "hashing scheme: ChainedH8|ChainedH24|LP|LPSoA|QP|RH|CuckooH4")
		fnName     = flag.String("fn", "Mult", "hash function family: Mult|MultAdd|Tab|Murmur")
		distName   = flag.String("dist", "Sparse", "key distribution: Dense|Grid|Sparse")
		slotsLog2  = flag.Int("slots", 20, "log2 of the open-addressing capacity")
		loadFactor = flag.Float64("load-factor", 0.7, "target load factor in (0,1)")
		seed       = flag.Uint64("seed", 42, "PRNG seed")
	)
	flag.Parse()

	if err := run(*scheme, *fnName, *distName, *slotsLog2, *loadFactor, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "hashinspect: %v\n", err)
		os.Exit(1)
	}
}

func run(scheme, fnName, distName string, slotsLog2 int, alpha float64, seed uint64) error {
	family, err := hashfn.FamilyByName(fnName)
	if err != nil {
		return err
	}
	kind, err := dist.KindByName(distName)
	if err != nil {
		return err
	}
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("load factor %v outside (0,1)", alpha)
	}
	if slotsLog2 < 4 || slotsLog2 > 30 {
		return fmt.Errorf("-slots %d outside [4,30]", slotsLog2)
	}
	capacity := 1 << slotsLog2
	n := int(alpha * float64(capacity))

	m, err := bench.NewWORMTable(table.Scheme(scheme), family, capacity, alpha, seed)
	if err != nil {
		return err
	}
	gen := dist.New(kind, seed)
	for i, k := range dist.Shuffled(gen.Keys(n), seed+1) {
		if _, _, err := m.RMW(k, uint64(i), true, nil); err != nil {
			return err
		}
	}

	fmt.Printf("%s%s, %s distribution, %d entries in %d slots (load factor %.2f)\n",
		m.Name(), family.Name(), kind, m.Len(), m.Capacity(), float64(m.Len())/float64(m.Capacity()))
	fmt.Printf("memory footprint: %.1f MB\n", float64(m.MemoryFootprint())/(1<<20))

	type displacer interface{ Displacements() []int }
	type clusterer interface{ ClusterLengths() []int }
	type chainer interface{ ChainLengths() []int }
	type cuckoo interface {
		Rehashes() int
		TotalKicks() uint64
		WayOccupancy() []int
	}

	if d, ok := m.(displacer); ok {
		s := stats.Summarize(d.Displacements())
		fmt.Printf("\ndisplacements: total=%d mean=%.2f stddev=%.2f max=%d\n",
			s.Total, s.Mean, s.StdDev, s.Max)
		if scheme == "LP" || scheme == "LPSoA" {
			fmt.Printf("Knuth expectation at alpha=%.2f: successful probes %.2f (displacement %.2f), unsuccessful probes %.2f\n",
				alpha, stats.LPExpectedProbesSuccessful(alpha),
				stats.LPExpectedDisplacement(alpha),
				stats.LPExpectedProbesUnsuccessful(alpha))
		}
	}
	if c, ok := m.(clusterer); ok {
		s := stats.Summarize(c.ClusterLengths())
		fmt.Printf("clusters: count=%d mean=%.2f max=%d\n", s.Count, s.Mean, s.Max)
	}
	if c, ok := m.(chainer); ok {
		lengths := c.ChainLengths()
		s := stats.Summarize(lengths)
		overflow := 0
		for _, l := range lengths {
			overflow += l - 1
		}
		fmt.Printf("chains: non-empty=%d mean=%.2f max=%d, collision rate=%.1f%% (expected %.1f%%)\n",
			s.Count, s.Mean, s.Max,
			100*float64(overflow)/float64(m.Len()),
			100*stats.ExpectedCollisionRate(m.Len(), m.Capacity()))
	}
	if ck, ok := m.(cuckoo); ok {
		fmt.Printf("cuckoo: rehashes=%d total kicks=%d subtable occupancy=%v\n",
			ck.Rehashes(), ck.TotalKicks(), ck.WayOccupancy())
	}
	return nil
}

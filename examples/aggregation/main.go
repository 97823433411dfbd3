// Aggregation: hash GROUP-BY with SUM/MIN/MAX/COUNT — per the paper's §4,
// the indexing workload it measures "resembles very closely other important
// operations such as joins and aggregates — like SUM, MIN, etc."
//
// We aggregate a fact table of (storeID, saleCents) into per-store
// statistics with agg.GroupBy: its hash table maps group key -> index into
// a dense state array, exactly how a vectorized query engine lays out its
// aggregation hash table.
package main

import (
	"fmt"
	"sort"

	"repro/agg"
	"repro/internal/prng"
)

func main() {
	const (
		numStores = 10_000
		numSales  = 5_000_000
	)

	// Synthesize sales with a skewed store popularity (low IDs sell more),
	// the shape real retail data tends to have, as two columns.
	rng := prng.NewXoshiro256(99)
	stores := make([]uint64, numSales)
	cents := make([]uint64, numSales)
	for i := range stores {
		s := rng.Uint64n(numStores)
		s = (s * s) / numStores // skew towards low store IDs
		stores[i], cents[i] = s+1, 100+rng.Uint64n(100_000)
	}

	// Group-by via a quadratic-probing table (GroupBy's default scheme):
	// the paper's pick for write-heavy workloads, and an aggregation build
	// is exactly that. AddBatch looks the rows up in bulk and opens a
	// group with a single probe sequence only for the rows that miss.
	groups := agg.MustNewGroupBy(agg.Config{Seed: 7})
	if err := groups.AddBatch(stores, cents); err != nil {
		panic(err)
	}

	// Report the top stores by revenue.
	var states []*agg.State
	for _, st := range groups.Groups() {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Sum > states[j].Sum })
	fmt.Printf("aggregated %d sales into %d groups (table: %s at load factor %.2f)\n\n",
		numSales, groups.NumGroups(), groups.TableName(), groups.Stats().LoadFactor)
	fmt.Printf("%-8s %10s %14s %10s %8s %8s\n", "store", "COUNT", "SUM", "AVG", "MIN", "MAX")
	for _, st := range states[:10] {
		fmt.Printf("%-8d %10d %14d %10d %8d %8d\n",
			st.Key, st.Count, st.Sum, st.Sum/st.Count, st.Min, st.Max)
	}

	// Sanity: total of sums must equal total of inputs.
	var wantTotal, gotTotal uint64
	for _, c := range cents {
		wantTotal += c
	}
	for _, st := range states {
		gotTotal += st.Sum
	}
	if wantTotal != gotTotal {
		panic(fmt.Sprintf("aggregate mismatch: %d != %d", gotTotal, wantTotal))
	}
	fmt.Printf("\ntotal revenue check: %d == %d ✓\n", gotTotal, wantTotal)
}

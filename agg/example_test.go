package agg_test

import (
	"cmp"
	"fmt"
	"log"
	"math/rand/v2"
	"slices"

	"repro/agg"
)

// Aggregate a fact table of (store, sale in cents) into per-store COUNT,
// SUM, MIN and MAX: the GROUP BY the paper's §4 names beside joins as the
// operator its indexing workload resembles. The hash table maps each store
// to its index in a dense state array, the way a vectorized query engine
// lays out its aggregation table.
func ExampleGroupBy() {
	const numStores, numSales = 100, 20_000

	// Low store IDs sell more, the shape retail data tends to have.
	rng := rand.New(rand.NewPCG(99, 0))
	stores := make([]uint64, numSales)
	cents := make([]uint64, numSales)
	var inputTotal uint64
	for i := range stores {
		s := rng.Uint64N(numStores)
		stores[i], cents[i] = s*s/numStores+1, 100+rng.Uint64N(100_000)
		inputTotal += cents[i]
	}

	// AddBatch looks the rows up in bulk and opens a group with a single
	// probe sequence only for the rows that miss.
	groups := agg.MustNewGroupBy(agg.Config{Seed: 7})
	if err := groups.AddBatch(stores, cents); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d sales in %d groups (%s at load factor %.2f)\n",
		numSales, groups.NumGroups(), groups.TableName(), groups.Stats().LoadFactor)

	var states []*agg.State
	var total uint64
	for _, st := range groups.Groups() {
		states = append(states, st)
		total += st.Sum
	}
	slices.SortFunc(states, func(a, b *agg.State) int { return cmp.Compare(b.Sum, a.Sum) })
	fmt.Println("store  COUNT       SUM    MIN    MAX")
	for _, st := range states[:3] {
		fmt.Printf("%5d %6d %9d %6d %6d\n", st.Key, st.Count, st.Sum, st.Min, st.Max)
	}
	fmt.Printf("revenue %d, input total %d\n", total, inputTotal)
	// Output:
	// 20000 sales in 75 groups (QPMult at load factor 0.07)
	// store  COUNT       SUM    MIN    MAX
	//     1   2000 102250394    101 100015
	//     2   1076  54491335    114 100073
	//     5    604  30388866    114  99986
	// revenue 1000961886, input total 1000961886
}

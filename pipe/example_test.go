package pipe_test

import (
	"fmt"
	"log"
	"math/rand/v2"

	"repro/agg"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// Join orders against customers, the build/probe pattern that motivates
// the paper: the build side is written once and probed many times, a WORM
// workload. Every tenth order references an unknown customer, so a tenth
// of the probes miss. Each scheme the join can build on finds the same
// matches.
func ExampleHashJoin() {
	const numCustomers, numOrders = 4096, 16384
	// Customers have dense keys, generated primary keys, and carry a
	// discount percent.
	customers := make(join.Relation, numCustomers)
	for i := range customers {
		id := uint64(i) + 1
		customers[i] = join.Row{Key: id, Payload: id % 50}
	}
	rng := rand.New(rand.NewPCG(7, 0))
	orders := make(join.Relation, numOrders)
	dangling := 0
	for i := range orders {
		orders[i].Key = 1 + rng.Uint64N(numCustomers)
		if i%10 == 0 {
			orders[i].Key += numCustomers
			dangling++
		}
	}
	fmt.Printf("%d orders ⋈ %d customers, %d dangling\n", numOrders, numCustomers, dangling)

	// The empty scheme lets Figure 8 pick the build table.
	for _, s := range []table.Scheme{"", table.SchemeLP, table.SchemeQP, table.SchemeRH,
		table.SchemeCuckooH4, table.SchemeChained24} {
		_, discounts, err := pipe.HashJoin(
			pipe.FromRelation(customers),
			pipe.FromRelation(orders),
			pipe.JoinConfig{
				Scheme:  s,
				Project: func(id, discount, _ uint64) (uint64, uint64) { return id, discount },
			},
		).Collect(pipe.Config{})
		if err != nil {
			log.Fatal(err)
		}
		var total uint64
		for _, d := range discounts {
			total += d
		}
		label := string(s)
		if s == "" {
			label = "Figure 8"
		}
		fmt.Printf("%-10s %d matches, discount sum %d\n", label, len(discounts), total)
	}
	// Output:
	// 16384 orders ⋈ 4096 customers, 1639 dangling
	// Figure 8   14745 matches, discount sum 363403
	// LP         14745 matches, discount sum 363403
	// QP         14745 matches, discount sum 363403
	// RH         14745 matches, discount sum 363403
	// CuckooH4   14745 matches, discount sum 363403
	// ChainedH24 14745 matches, discount sum 363403
}

// Run two queries over customers (key, market segment) and orders
// (customer key, cents), each one streamed operator chain:
//
//	SELECT c.segment, SUM(o.cents) FROM orders o JOIN customers c
//	WHERE o.cents >= 5000 GROUP BY c.segment
//
// pushes the price predicate into the order scan and folds each join
// match into the group-by in the same morsel pass, and
//
//	SELECT COUNT(*) FROM (SELECT custkey FROM orders
//	GROUP BY custkey HAVING COUNT(*) >= 6)
//
// streams the per-customer counts out of a mid-pipeline group-by into the
// HAVING filter. Neither materializes an intermediate relation.
func ExampleStream_GroupBy() {
	const numCustomers, numOrders, segments = 4096, 16384, 8
	customers := make(join.Relation, numCustomers)
	for i := range customers {
		key := uint64(i) + 1
		customers[i] = join.Row{Key: key, Payload: key % segments}
	}
	// A tenth of the orders reference keys past the customer range.
	rng := rand.New(rand.NewPCG(42, 0))
	orders := make(join.Relation, numOrders)
	for i := range orders {
		orders[i] = join.Row{Key: 1 + rng.Uint64N(numCustomers*11/10), Payload: rng.Uint64N(10_000)}
	}

	revenue, err := pipe.HashJoin(
		pipe.FromRelation(customers),
		pipe.FromRelation(orders).Filter(func(_, cents uint64) bool { return cents >= 5000 }),
		pipe.JoinConfig{Project: func(_, segment, cents uint64) (uint64, uint64) { return segment, cents }},
	).GroupBy(pipe.Config{}, pipe.GroupConfig{ExpectedGroups: segments})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(revenue.NumGroups(), "segments")
	for seg := uint64(0); seg < segments; seg++ {
		st, _ := revenue.Get(seg)
		fmt.Printf("segment %d: %d orders, %d cents\n", seg, st.Count, st.Sum)
	}

	repeat, err := pipe.GroupByStream(pipe.FromRelation(orders), pipe.GroupConfig{}, agg.Count).
		Filter(func(_, count uint64) bool { return count >= 6 }).
		Count(pipe.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(repeat, "customers with at least 6 orders")
	// Output:
	// 8 segments
	// segment 0: 891 orders, 6699120 cents
	// segment 1: 907 orders, 6721127 cents
	// segment 2: 887 orders, 6652931 cents
	// segment 3: 985 orders, 7476714 cents
	// segment 4: 958 orders, 7191779 cents
	// segment 5: 955 orders, 7081351 cents
	// segment 6: 944 orders, 7086811 cents
	// segment 7: 927 orders, 6990873 cents
	// 713 customers with at least 6 orders
}

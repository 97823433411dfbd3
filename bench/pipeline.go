// The TPC-H-flavored pipeline query set: a two-relation star-schema
// corner (customers with a market segment, orders with a price) and the
// queries the streaming-vs-materializing comparison runs over it. Each
// query exists in two semantically identical forms:
//
//   - Streaming: the pipe operator chain — predicate pushed into the
//     scan, matches projected straight into the group-by, no
//     intermediate relation anywhere.
//   - Materialized: the one-shot composition — filter into a copied
//     relation, join.SharedHashJoin emitting into materialized columns,
//     agg.AddBatch over those columns.
//
// The benchmark harness (pipeline_test.go) and the examples/pipeline
// demo both drive these, so the comparison the README quotes is exactly
// the code here.

package bench

import (
	"fmt"
	"sync"

	"repro/agg"
	"repro/exec"
	"repro/internal/prng"
	"repro/join"
	"repro/pipe"
)

// PipelineSegments is the market-segment cardinality (TPC-H has 5; a
// power of two keeps the modulo cheap without changing the shape).
const PipelineSegments = 8

// PipelineMaxCents is the exclusive upper bound of the uniform order
// price, so a filter cut of PipelineMaxCents*p/100 keeps ~p% of orders.
const PipelineMaxCents = 10_000

// PipelineData is the dataset the pipeline queries run over.
type PipelineData struct {
	// Customers have unique keys 1..N and Payload = market segment.
	Customers join.Relation
	// Orders reference customers by key — ~10% dangle past the customer
	// range (join misses) — and carry Payload = price in cents.
	Orders join.Relation
}

// NewPipelineData builds a deterministic dataset.
func NewPipelineData(customers, orders int, seed uint64) PipelineData {
	d := PipelineData{
		Customers: make(join.Relation, customers),
		Orders:    make(join.Relation, orders),
	}
	for i := range d.Customers {
		key := uint64(i) + 1
		d.Customers[i] = join.Row{Key: key, Payload: key % PipelineSegments}
	}
	rng := prng.NewXoshiro256(seed)
	span := uint64(customers) * 11 / 10
	for i := range d.Orders {
		d.Orders[i] = join.Row{
			Key:     rng.Uint64n(span) + 1,
			Payload: rng.Uint64n(PipelineMaxCents),
		}
	}
	return d
}

// SegmentRevenueStreaming runs
//
//	SELECT c.segment, SUM(o.cents) FROM orders o JOIN customers c
//	WHERE o.cents >= cut GROUP BY c.segment
//
// as one pipe chain: the price predicate is pushed into the order scan,
// each join match is projected to (segment, cents) and folded into the
// per-worker group-by locals in the same morsel pass.
func SegmentRevenueStreaming(d PipelineData, cut uint64, cfg pipe.Config) (*agg.GroupBy, error) {
	return pipe.HashJoin(
		pipe.FromRelation(d.Customers),
		pipe.FromRelation(d.Orders).Filter(func(_, cents uint64) bool { return cents >= cut }),
		pipe.JoinConfig{
			Project: func(_, segment, cents uint64) (uint64, uint64) { return segment, cents },
		},
	).GroupBy(cfg, pipe.GroupConfig{ExpectedGroups: PipelineSegments})
}

// SegmentRevenueMaterialized is the same query as the one-shot operator
// composition this repo offered before pipe: filter into a copied
// relation, join into materialized (segment, cents) columns, aggregate
// the columns. Every intermediate is a real allocation.
func SegmentRevenueMaterialized(d PipelineData, cut uint64, workers int) (*agg.GroupBy, error) {
	filtered := make(join.Relation, 0, len(d.Orders))
	for _, r := range d.Orders {
		if r.Payload >= cut {
			filtered = append(filtered, r)
		}
	}
	segments := make([]uint64, 0, len(filtered))
	cents := make([]uint64, 0, len(filtered))
	emit := func(_, segment, c uint64) {
		segments = append(segments, segment)
		cents = append(cents, c)
	}
	var err error
	if workers > 1 {
		// SharedHashJoin calls emit from every worker; a materializing
		// consumer serializes it.
		var mu sync.Mutex
		_, err = join.SharedHashJoin(d.Customers, filtered, workers, join.Config{}, func(k, segment, c uint64) {
			mu.Lock()
			emit(k, segment, c)
			mu.Unlock()
		})
	} else {
		_, err = join.HashJoin(d.Customers, filtered, join.Config{}, emit)
	}
	if err != nil {
		return nil, err
	}
	g := agg.MustNewGroupBy(agg.Config{ExpectedGroups: PipelineSegments})
	if workers > 1 {
		err = g.AddParallel(exec.Config{Workers: workers}, segments, cents)
	} else {
		err = g.AddBatch(segments, cents)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// RepeatCustomersStreaming runs
//
//	SELECT COUNT(*) FROM (SELECT o.custkey FROM orders o
//	GROUP BY o.custkey HAVING COUNT(*) >= minOrders)
//
// with the mid-pipeline group-by: per-customer counts stream out of the
// aggregation one morsel at a time, the HAVING filter is fused onto that
// emission, and only a running count survives.
func RepeatCustomersStreaming(d PipelineData, minOrders uint64, cfg pipe.Config) (int, error) {
	return pipe.GroupByStream(
		pipe.FromRelation(d.Orders),
		pipe.GroupConfig{},
		agg.Count,
	).Filter(func(_, count uint64) bool { return count >= minOrders }).Count(cfg)
}

// RepeatCustomersMaterialized is the same query over the one-shot
// aggregation: build the full per-customer group state, then walk it.
func RepeatCustomersMaterialized(d PipelineData, minOrders uint64, workers int) (int, error) {
	g := agg.MustNewGroupBy(agg.Config{})
	keys := d.Orders.Keys()
	vals := make([]uint64, len(keys))
	var err error
	if workers > 1 {
		err = g.AddParallel(exec.Config{Workers: workers}, keys, vals)
	} else {
		err = g.AddBatch(keys, vals)
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, st := range g.Groups() {
		if st.Count >= minOrders {
			n++
		}
	}
	return n, nil
}

// CheckPipelineEquivalence runs both forms of both queries and verifies
// they agree — the cheap self-check the benchmark and the demo run once
// before timing anything.
func CheckPipelineEquivalence(d PipelineData, cut uint64, workers int) error {
	sg, err := SegmentRevenueStreaming(d, cut, pipe.Config{Workers: workers})
	if err != nil {
		return err
	}
	mg, err := SegmentRevenueMaterialized(d, cut, workers)
	if err != nil {
		return err
	}
	if sg.NumGroups() != mg.NumGroups() {
		return fmt.Errorf("segment revenue: %d streamed groups, %d materialized", sg.NumGroups(), mg.NumGroups())
	}
	for key, ms := range mg.Groups() {
		ss, ok := sg.Get(key)
		if !ok || *ss != *ms {
			return fmt.Errorf("segment revenue: group %d diverges (streamed %+v, materialized %+v)", key, ss, ms)
		}
	}
	sc, err := RepeatCustomersStreaming(d, 3, pipe.Config{Workers: workers})
	if err != nil {
		return err
	}
	mc, err := RepeatCustomersMaterialized(d, 3, workers)
	if err != nil {
		return err
	}
	if sc != mc {
		return fmt.Errorf("repeat customers: streamed %d, materialized %d", sc, mc)
	}
	return nil
}

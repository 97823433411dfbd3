// The TPC-H-flavored pipeline query set: a two-relation star-schema
// corner (customers with a market segment, orders with a price) and two
// queries over it, each one pipe operator chain — predicate pushed into
// the scan, matches projected straight into the group-by, no
// intermediate relation anywhere.
//
// The benchmark harness (pipeline_test.go) drives these, so the numbers
// the README quotes are exactly the code here.

package bench

import (
	"repro/agg"
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

// Pipeline: the streaming operator chain end to end — a TPC-H-flavored
// segment-revenue query (filter orders, join customers, group by segment)
// and a HAVING count over a mid-pipeline group-by, each one pipe chain:
// the price predicate pushed into the order scan, join matches projected
// straight into per-worker group-by locals, no intermediate relation
// anywhere.
//
// Both are the bench package's query-set code verbatim, so the numbers
// printed here are the ones bench's BenchmarkPipeline reports. Worker
// count comes from the library's own advice (decision.WorkersFor over
// GOMAXPROCS), not a hardcoded constant. Correctness is pinned by pipe's
// differential suite, not here.
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench"
	"repro/decision"
	"repro/pipe"
)

const (
	numCustomers = 1 << 16
	numOrders    = 1 << 20
	cut          = bench.PipelineMaxCents / 2 // keep ~half the orders
)

// run times one query and reports rows/sec over the order count and bytes
// allocated per query (TotalAlloc delta; cumulative, so GC cannot hide a
// transient intermediate).
func run(label string, query func() error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := query(); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rowsPerSec := float64(numOrders) / elapsed.Seconds()
	fmt.Printf("  %-14s %8.1f ms   %6.1f M rows/s   %8.2f MB allocated\n",
		label, float64(elapsed.Microseconds())/1000, rowsPerSec/1e6,
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
}

func main() {
	cores := runtime.GOMAXPROCS(0)
	workers := decision.WorkersFor(cores)
	if workers < 1 {
		workers = 1 // single-core machine: WorkersFor advises "no pool"
	}
	fmt.Printf("pipeline demo: %d customers, %d orders, cut=%d cents, workers=%d (decision.WorkersFor(%d))\n",
		numCustomers, numOrders, cut, workers, cores)

	d := bench.NewPipelineData(numCustomers, numOrders, 42)

	for _, w := range []int{1, workers} {
		fmt.Printf("\nSELECT segment, SUM(cents) ... GROUP BY segment  (workers=%d)\n", w)
		cfg := pipe.Config{Workers: w}
		run("streamed", func() error {
			g, err := bench.SegmentRevenueStreaming(d, cut, cfg)
			if err != nil {
				return err
			}
			if g.NumGroups() != bench.PipelineSegments {
				return fmt.Errorf("%d groups, want %d", g.NumGroups(), bench.PipelineSegments)
			}
			return nil
		})
		if w == workers && workers == 1 {
			break // single-core: both passes are the same configuration
		}
	}

	fmt.Printf("\nSELECT COUNT(*) ... GROUP BY custkey HAVING COUNT(*) >= 3  (workers=%d)\n", workers)
	cfg := pipe.Config{Workers: workers}
	run("streamed", func() error {
		_, err := bench.RepeatCustomersStreaming(d, 3, cfg)
		return err
	})

	// The same streamed query once more with telemetry attached: the
	// per-operator counters land in the obs registry exactly like the
	// /metrics endpoint would serve them.
	m := pipe.NewMetrics(workers)
	if _, err := bench.SegmentRevenueStreaming(d, cut, pipe.Config{Workers: workers, Metrics: m}); err != nil {
		panic(err)
	}
	probe := m.JoinProbe()
	fmt.Printf("\ntelemetry (streamed run): scan %d rows in → %d out (pushdown dropped %d); probe %d in → %d matches\n",
		m.Scan().RowsIn.Value(), m.Scan().RowsOut.Value(),
		m.Scan().RowsIn.Value()-m.Scan().RowsOut.Value(),
		probe.RowsIn.Value(), probe.RowsOut.Value())
}

package bench

// The pipeline query set's benchmarks: ns/row (rows = orders entering the
// query) and bytes/query (TotalAlloc delta per iteration) at three filter
// selectivities and workers=1,4, reported through ReportMetric (the
// tracked numbers are the benchmark ladder's pipe.* rungs, benchmark/).
// The streamed form's allocations do not scale with the selectivity: no
// filtered copy or joined column is ever built.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/pipe"
)

func reportPipeline(b *testing.B, rows int, bytesPerOp float64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(bytesPerOp, "bytes/query")
}

// allocDelta returns TotalAlloc now; diff two samples for bytes allocated.
func allocDelta() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// BenchmarkPipeline sweeps selectivity × workers over the segment-revenue
// join query.
func BenchmarkPipeline(b *testing.B) {
	const customers, orders = 1 << 14, 1 << 17
	d := NewPipelineData(customers, orders, 42)
	for _, selPct := range []int{10, 50, 90} {
		cut := uint64(PipelineMaxCents * (100 - selPct) / 100)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("streamed/sel%d/workers%d", selPct, workers), func(b *testing.B) {
				cfg := pipe.Config{Workers: workers}
				before := allocDelta()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SegmentRevenueStreaming(d, cut, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportPipeline(b, b.N*orders, float64(allocDelta()-before)/float64(b.N))
			})
		}
	}
}

// BenchmarkPipelineGroupStream sweeps the mid-pipeline group-by query.
func BenchmarkPipelineGroupStream(b *testing.B) {
	const customers, orders = 1 << 14, 1 << 17
	d := NewPipelineData(customers, orders, 7)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("streamed/workers%d", workers), func(b *testing.B) {
			cfg := pipe.Config{Workers: workers}
			before := allocDelta()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RepeatCustomersStreaming(d, 3, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPipeline(b, b.N*orders, float64(allocDelta()-before)/float64(b.N))
		})
	}
}

// TestPipelineQueriesAgree is the tier-1 guard on the query set itself:
// both queries agree with a plain-map computation over the same data at
// every selectivity, serial and parallel.
func TestPipelineQueriesAgree(t *testing.T) {
	d := NewPipelineData(2_000, 20_000, 3)
	segment := map[uint64]uint64{}
	for _, c := range d.Customers {
		segment[c.Key] = c.Payload
	}
	perCustomer := map[uint64]uint64{}
	for _, o := range d.Orders {
		perCustomer[o.Key]++
	}
	repeat := 0
	for _, n := range perCustomer {
		if n >= 3 {
			repeat++
		}
	}
	for _, selPct := range []int{10, 50, 90} {
		cut := uint64(PipelineMaxCents * (100 - selPct) / 100)
		revenue := map[uint64]uint64{}
		for _, o := range d.Orders {
			if s, ok := segment[o.Key]; ok && o.Payload >= cut {
				revenue[s] += o.Payload
			}
		}
		for _, workers := range []int{1, 4} {
			cfg := pipe.Config{Workers: workers}
			g, err := SegmentRevenueStreaming(d, cut, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumGroups() != len(revenue) {
				t.Fatalf("sel=%d%% workers=%d: %d segments, want %d", selPct, workers, g.NumGroups(), len(revenue))
			}
			for s, sum := range revenue {
				if st, ok := g.Get(s); !ok || st.Sum != sum {
					t.Fatalf("sel=%d%% workers=%d: segment %d revenue %+v, want %d", selPct, workers, s, st, sum)
				}
			}
			if n, err := RepeatCustomersStreaming(d, 3, cfg); err != nil || n != repeat {
				t.Fatalf("workers=%d: %d repeat customers, %v; want %d", workers, n, err, repeat)
			}
		}
	}
}

package bench

// The streaming-vs-materializing comparison over the pipeline query set:
// ns/row (rows = orders entering the query) and bytes/query (TotalAlloc
// delta per iteration) at three filter selectivities and workers=1,4,
// reported through ReportMetric (the tracked numbers are the benchmark
// ladder's pipe.* rungs, benchmark/). The interesting curve is
// bytes/query: the materialized form's allocations scale with the
// selectivity (the filtered copy and the joined columns), the streamed
// form's do not.

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

// BenchmarkPipeline sweeps query form × selectivity × workers over the
// segment-revenue join query.
func BenchmarkPipeline(b *testing.B) {
	const customers, orders = 1 << 14, 1 << 17
	d := NewPipelineData(customers, orders, 42)
	if err := CheckPipelineEquivalence(d, PipelineMaxCents/2, 4); err != nil {
		b.Fatal(err)
	}
	for _, selPct := range []int{10, 50, 90} {
		cut := uint64(PipelineMaxCents * (100 - selPct) / 100)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("sel%d/workers%d", selPct, workers)
			b.Run("streamed/"+name, func(b *testing.B) {
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
			b.Run("materialized/"+name, func(b *testing.B) {
				before := allocDelta()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SegmentRevenueMaterialized(d, cut, workers); err != nil {
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
		name := fmt.Sprintf("workers%d", workers)
		b.Run("streamed/"+name, func(b *testing.B) {
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
		b.Run("materialized/"+name, func(b *testing.B) {
			before := allocDelta()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RepeatCustomersMaterialized(d, 3, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPipeline(b, b.N*orders, float64(allocDelta()-before)/float64(b.N))
		})
	}
}

// TestPipelineQueriesAgree is the tier-1 guard on the query set itself:
// both forms of both queries agree at every selectivity, serial and
// parallel.
func TestPipelineQueriesAgree(t *testing.T) {
	d := NewPipelineData(2_000, 20_000, 3)
	for _, selPct := range []int{10, 50, 90} {
		cut := uint64(PipelineMaxCents * (100 - selPct) / 100)
		for _, workers := range []int{1, 4} {
			if err := CheckPipelineEquivalence(d, cut, workers); err != nil {
				t.Fatalf("sel=%d%% workers=%d: %v", selPct, workers, err)
			}
		}
	}
}

package agg

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAddBatchCardinality is the guard on AddBatch's two phases: one
// million rows in morsel-sized batches over a pre-sized index, from a
// cache-resident group set (all lookups after the first batches) to
// all-distinct keys (all inserts, where a lookup pass would only miss).
// ns/row is the number to compare across commits.
func BenchmarkAddBatchCardinality(b *testing.B) {
	const rows, batch = 1 << 20, 4096
	for _, distinct := range []int{1 << 10, 1 << 14, 1 << 18, rows} {
		groups, values := foldColumns(rows, uint64(distinct%rows), 18) // 0: all-distinct
		b.Run(fmt.Sprintf("groups=%d", distinct), func(b *testing.B) {
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				g := MustNewGroupBy(Config{ExpectedGroups: distinct, Seed: 18})
				start := time.Now()
				for lo := 0; lo < rows; lo += batch {
					if err := g.AddBatch(groups[lo:lo+batch], values[lo:lo+batch]); err != nil {
						b.Fatal(err)
					}
				}
				busy += time.Since(start)
				if distinct == rows && g.NumGroups() != rows {
					b.Fatalf("%d groups, want %d", g.NumGroups(), rows)
				}
			}
			b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

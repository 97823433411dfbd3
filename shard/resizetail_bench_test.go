package shard_test

// BenchmarkResizeTail measures the tail latency of individual inserts
// while a table grows through several doublings — the experiment behind
// the engine's incremental resize. Two paths insert the same keys:
//
//   - rehash: a plain scheme table with growth enabled. The insert that
//     crosses the threshold pays a full stop-the-world rehash, so the max
//     (and, as the table gets big, the p99.9) per-op latency spikes with
//     table size.
//   - incremental: a one-shard Engine with the same threshold. Every
//     mutation pays at most one bounded migration chunk; the spike is
//     gone and the worst observed op stays within a small constant factor
//     of the median.
//
// Per-op latencies are recorded and reported as p50/p99/p99.9/max
// ns/op metrics through ReportMetric; the tracked number for this question
// is the benchmark ladder's shard.put_ns_per_row_p99 (benchmark/).

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/shard"
	"repro/table"
)

// benchKeys is how many inserts each path performs: from 4k initial
// capacity through ~5 doublings.
const benchKeys = 1 << 17

// reportTail reports the quantiles of one path's per-op latencies.
func reportTail(b *testing.B, lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) float64 {
		return float64(lat[int(q*float64(len(lat)-1))])
	}
	b.ReportMetric(pick(0.50), "p50-ns/op")
	b.ReportMetric(pick(0.99), "p99-ns/op")
	b.ReportMetric(pick(0.999), "p99.9-ns/op")
	b.ReportMetric(pick(1), "max-ns/op")
}

// runTail inserts benchKeys sequential keys through put, timing each op.
// A forced GC beforehand keeps collector assists from polluting the tail.
func runTail(put func(k uint64)) []time.Duration {
	runtime.GC()
	lat := make([]time.Duration, benchKeys)
	for i := 0; i < benchKeys; i++ {
		k := uint64(i) + 1
		start := time.Now()
		put(k)
		lat[i] = time.Since(start)
	}
	return lat
}

func BenchmarkResizeTail(b *testing.B) {
	const initialCapacity = 1 << 12
	b.Run("rehash", func(b *testing.B) {
		var lat []time.Duration
		for i := 0; i < b.N; i++ {
			t, err := table.New(table.SchemeRH, table.Config{
				InitialCapacity: initialCapacity,
				MaxLoadFactor:   0.85,
				Seed:            1,
			})
			if err != nil {
				b.Fatal(err)
			}
			lat = runTail(func(k uint64) {
				if _, err := tryPut(t, k, k); err != nil {
					b.Fatal(err)
				}
			})
		}
		reportTail(b, lat)
	})
	// incremental-1 isolates the resize mechanism (one shard, same keys);
	// incremental-8 is the production configuration, where sharding also
	// divides the one remaining per-migration cost — the successor-table
	// allocation — by the shard count.
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("incremental-%dshard", shards), func(b *testing.B) {
			var lat []time.Duration
			for i := 0; i < b.N; i++ {
				e := shard.MustNew(shard.Config{
					Shards:   shards,
					Capacity: initialCapacity,
					GrowAt:   0.85,
					Seed:     1,
					NewTable: func(capacity int, seed uint64) (shard.Table, error) {
						return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
					},
				})
				lat = runTail(func(k uint64) {
					if _, err := tryPut(e, k, k); err != nil {
						b.Fatal(err)
					}
				})
				if st := e.Stats(); st.MigrationsStarted == 0 || st.Rebuilds != 0 {
					b.Fatalf("incremental path degenerate: %+v", st)
				}
			}
			reportTail(b, lat)
		})
	}
}

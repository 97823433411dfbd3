package exec_test

// Benchmarks of the morsel-driven core at workers=1,2,4: the join build
// and probe phases (the pool driving a sharded handle's batched
// pipelines) and the parallel GROUP BY (pipe's per-worker
// pre-aggregation and merge), each reporting the repo's ns/key metric. On a single-vCPU runner the worker sweep
// measures scheduling overhead rather than speedup. The trajectory of
// these layers is tracked by the benchmark ladder's exec.* and
// agg.add_ns_per_row.* rungs (benchmark/), not from here.

import (
	"fmt"
	"testing"

	"repro/dist"
	"repro/exec"
	"repro/internal/prng"
	"repro/pipe"
	"repro/table"
)

// reportExecNs reports ns/key for a benchmark that processed total keys.
func reportExecNs(b *testing.B, total int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/key")
}

// benchWorkers is the worker sweep every exec benchmark runs.
var benchWorkers = []int{1, 2, 4}

// openShardedRH opens the sharded build-side handle the join benchmarks
// drive (8 shards, pre-sized like a join build).
func openShardedRH(b *testing.B, capacity int) *table.Handle {
	b.Helper()
	h, err := table.Open(
		table.WithScheme(table.SchemeRH),
		table.WithCapacity(capacity),
		table.WithPartitions(8),
		table.WithSeed(42),
	)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkExecJoin measures the two phases of the shared-memory parallel
// join — morsel-scheduled batched build (GetOrPutBatch) and probe
// (GetBatch) against one sharded handle — at workers=1,2,4.
func BenchmarkExecJoin(b *testing.B) {
	const buildN, probeN = 1 << 17, 1 << 18
	gen := dist.New(dist.Sparse, 1)
	keys := dist.Shuffled(gen.Keys(buildN), 2)
	vals := make([]uint64, buildN)
	for i := range vals {
		vals[i] = uint64(i)
	}
	rng := prng.NewXoshiro256(3)
	probes := make([]uint64, probeN)
	for i := range probes {
		if rng.Uint64n(4) == 0 { // 25% misses
			probes[i] = gen.Key(uint64(buildN) + rng.Uint64n(1<<20))
		} else {
			probes[i] = keys[rng.Intn(buildN)]
		}
	}
	for _, workers := range benchWorkers {
		cfg := exec.Config{Workers: workers}
		b.Run(fmt.Sprintf("build/workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := openShardedRH(b, buildN*2)
				pool := exec.NewPool(cfg)
				out := make([][]uint64, pool.Workers())
				loaded := make([][]bool, pool.Workers())
				for w := range out {
					out[w] = make([]uint64, pool.MorselSize())
					loaded[w] = make([]bool, pool.MorselSize())
				}
				b.StartTimer()
				if err := pool.ForMorsels(buildN, func(w, lo, hi int) error {
					_, err := h.GetOrPutBatch(keys[lo:hi], vals[lo:hi], out[w][:hi-lo], loaded[w][:hi-lo])
					return err
				}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				pool.Close()
				b.StartTimer()
			}
			reportExecNs(b, b.N*buildN)
		})
		b.Run(fmt.Sprintf("probe/workers%d", workers), func(b *testing.B) {
			h := openShardedRH(b, buildN*2)
			if _, err := h.PutBatch(keys, vals); err != nil {
				b.Fatal(err)
			}
			pool := exec.NewPool(cfg)
			defer pool.Close()
			got := make([][]uint64, pool.Workers())
			ok := make([][]bool, pool.Workers())
			for w := range got {
				got[w] = make([]uint64, pool.MorselSize())
				ok[w] = make([]bool, pool.MorselSize())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.ForMorsels(probeN, func(w, lo, hi int) error {
					h.GetBatch(probes[lo:hi], got[w][:hi-lo], ok[w][:hi-lo])
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportExecNs(b, b.N*probeN)
		})
	}
}

// BenchmarkExecAgg measures the parallel GROUP BY (per-worker
// pre-aggregation + merge, through pipe) at workers=1,2,4.
func BenchmarkExecAgg(b *testing.B) {
	const rows = 1 << 19
	const distinct = 1 << 12
	rng := prng.NewXoshiro256(9)
	groups := make([]uint64, rows)
	values := make([]uint64, rows)
	for i := range groups {
		groups[i] = rng.Uint64n(distinct)
		values[i] = rng.Uint64n(1 << 20)
	}
	for _, workers := range benchWorkers {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			src := pipe.FromColumns(groups, values)
			for i := 0; i < b.N; i++ {
				g, err := src.GroupBy(pipe.Config{Workers: workers}, pipe.GroupConfig{ExpectedGroups: distinct, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				if g.NumGroups() != distinct {
					b.Fatalf("%d groups, want %d", g.NumGroups(), distinct)
				}
			}
			reportExecNs(b, b.N*rows)
		})
	}
}

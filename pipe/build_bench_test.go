package pipe_test

import (
	"fmt"
	"testing"

	"repro/internal/prng"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// BenchmarkJoinBuild times HashJoin's build phase alone — a 1M-row
// relation into a pre-sized table, an empty probe side — at one and two
// workers, with the scheme openBuild picks for itself (LP: 1M keys in
// 2^21 slots is a load factor of 0.477) beside RH, LP and QP pinned. Every
// build is one fixed table; the workers share LP and QP through
// PutIfAbsentBatch's compare-and-swap, and take turns on RH under a mutex,
// so workers=2/RH against workers=2/default prices the serialized build.
// Fixed work per iteration; compare ns/row across sub-benchmarks of one run.
func BenchmarkJoinBuild(b *testing.B) {
	const rows = 1_000_000
	rng := prng.NewSplitMix64(1)
	build := make(join.Relation, rows)
	for i := range build {
		build[i] = join.Row{Key: rng.Next() | 1, Payload: uint64(i)}
	}
	for _, workers := range []int{1, 2} {
		for _, scheme := range []table.Scheme{"", table.SchemeRH, table.SchemeLP, table.SchemeQP} {
			name := string(scheme)
			if name == "" {
				name = "default"
			}
			b.Run(fmt.Sprintf("workers=%d/%s", workers, name), func(b *testing.B) {
				cfg := pipe.Config{Workers: workers}
				for i := 0; i < b.N; i++ {
					n, err := pipe.HashJoin(pipe.FromRelation(build), pipe.FromColumns(nil, nil),
						pipe.JoinConfig{Scheme: scheme}).Count(cfg)
					if err != nil || n != 0 {
						b.Fatalf("join over an empty probe side: %d rows, %v", n, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}

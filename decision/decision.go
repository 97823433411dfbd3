// Package decision sizes a table and its operators for concurrent use:
// ShardsFor advises the shard count (table.Open's WithPartitions) and
// WorkersFor the exec worker count for a given number of concurrent
// goroutines. The paper's Figure 8 graph, which picks the scheme and hash
// function, is table.Recommend, walked by table.Open's WithWorkload.
package decision

import (
	"math/bits"
	"runtime"
)

// ShardsFor returns the recommended shard count for a table shared by
// threads concurrent goroutines: the power of two >= 2x the thread count,
// so collisions on a shard lock stay rare even under uniform routing
// (birthday bound), while the per-shard tables stay large enough to keep
// the paper's cache behavior. More shards than that do not buy what they
// cost: measured on the benchmark's rw_resize tape (ISSUE 19), 8, 16 and
// 64 shards instead of 4 for two clients shortened the two-client wall
// time by 0, 3 and 10% and lengthened the one-client time by 0, 2 and
// 16% — two clients lose their time behind each other's batch-long holds
// and to reads torn by scalar writes, which finer striping thins out
// slowly, while every batch pays per shard for its scatter and its short
// ranges. Zero (no striping) is returned for single-threaded use; absurd
// thread counts clamp rather than overflow.
func ShardsFor(threads int) int {
	if threads <= 1 {
		return 0
	}
	if threads > 1<<30 {
		threads = 1 << 30
	}
	return 1 << bits.Len(uint(2*threads-1))
}

// WorkersFor returns the recommended exec worker count (exec.Config's
// Workers) for an operator driven on behalf of threads concurrent
// callers: the thread count itself, clamped to runtime.GOMAXPROCS —
// shards want headroom over the thread count so lock collisions stay
// rare (ShardsFor's 2x), but workers are CPU-bound, and oversubscribing
// cores only adds scheduling overhead. Zero (no pool) is returned for
// single-threaded use, mirroring ShardsFor.
func WorkersFor(threads int) int {
	if threads <= 1 {
		return 0
	}
	if g := runtime.GOMAXPROCS(0); threads > g {
		return g
	}
	return threads
}

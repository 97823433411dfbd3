// Package decision implements the paper's Figure 8: the suggested decision
// graph that maps a workload description to a concrete ⟨hashing scheme,
// hash function⟩ choice.
//
// The graph is reconstructed from Figure 8's nodes and the paper's inline
// conclusions (the figure's terminals are ChainedH24, LPMult, QPMult,
// RHMult and CH4Mult, all with Mult as the function — §5.2: "no hash table
// is the absolute best using Murmur"):
//
//   - Load factor < 50% (§5.1): "LPMult is the way to go if most queries
//     are successful (>= 50%), and ChainedH24 must be considered
//     otherwise."
//   - Write-heavy workloads (§6): "quadratic probing looks as the best
//     option in general"; chained and Cuckoo hashing "should be avoided
//     for write-heavy workloads". For a static build over densely
//     distributed keys, LPMult wins inserts instead (§5.2, Figure 4(a):
//     45M vs 35M inserts/second at 90% load factor).
//   - Read-mostly at high load factors (§5.2): "RH is always among the top
//     performers ... an excellent all-rounder unless the hash table is
//     expected to be very full, or the amount of unsuccessful queries is
//     rather large. In such cases, CuckooH4 and ChainedH24 would be better
//     options, respectively, if their slow insertion times are
//     acceptable." CuckooH4 clearly surpasses the probing schemes from
//     ~80% load factor on (§5.2); at very high unsuccessful-lookup rates
//     ChainedH24 wins but only fits the §4.5 memory budget up to ~50–70%
//     load factor.
//
// The walk itself lives in table.Recommend so that table.Open can apply it
// through the WithWorkload option without an import cycle; this package
// wraps it in the paper-style Choice with its audit trail. Every
// recommendation carries the path of decisions taken, so the choice is
// auditable against the paper.
package decision

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/table"
)

// Workload describes the anticipated usage of the hash table. It is an
// alias of table.Workload, so a decision.Workload can be passed directly
// to table.Open's WithWorkload option.
type Workload = table.Workload

// Choice is a recommendation: a scheme, a hash-function family name, and
// the audit trail of decisions that led there. The JSON tags back
// cmd/decide's -json output.
type Choice struct {
	Scheme table.Scheme `json:"scheme"`
	Family string       `json:"family"` // always "Mult" per the paper's Figure 8
	// Shards is the recommended shard count for concurrent use (the
	// argument to table.Open's WithPartitions), set when the workload was
	// described with an expected thread count > 1; zero means
	// single-threaded use, no striping.
	Shards int `json:"shards,omitempty"`
	// Workers is the recommended exec.Config.Workers for the parallel
	// operators (joins, parallel aggregation, partition build/probe), set
	// alongside Shards when the thread count is > 1; zero means
	// single-threaded use, no pool.
	Workers int      `json:"workers,omitempty"`
	Path    []string `json:"path"`
}

// Label returns the paper-style table label, e.g. "RHMult".
func (c Choice) Label() string {
	if c.Scheme == table.SchemeCuckooH4 {
		return "CH4" + c.Family // Figure 8 abbreviates CuckooH4 as CH4
	}
	return string(c.Scheme) + c.Family
}

// String returns the label and the decision path.
func (c Choice) String() string {
	return fmt.Sprintf("%s (path: %v)", c.Label(), c.Path)
}

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

// Recommend walks the Figure 8 decision graph for w.
func Recommend(w Workload) (Choice, error) {
	scheme, path, err := table.Recommend(w)
	if err != nil {
		return Choice{}, err
	}
	return Choice{Scheme: scheme, Family: "Mult", Path: path}, nil
}

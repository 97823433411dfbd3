// Package obs is the repo's low-overhead telemetry layer: the
// contention-free recording primitives the hot paths write into, and the
// pull-based Registry that exports them.
//
// The paper's engine layers (table kernel → shard engine → exec pool →
// operators) report point-in-time Stats() structs, which answer "what
// does the table look like now" but not "how long do operations take",
// "at what rate", or "what happened when". This package closes that gap
// the way an at-scale store has to — with instrumentation designed into
// the engine rather than bolted on — while keeping the recording cost
// small enough to leave on in production paths.
//
// # Recording primitives
//
// Every primitive is stripe-addressed: the caller passes a stripe hint
// (its exec worker index, its shard index, its replay-thread id), and
// the primitive routes the atomic update to a cache-line-padded slot
// owned by that stripe. Two workers recording concurrently never touch
// the same cache line, so recording is contention-free by construction —
// no locks, no CAS loops, no per-CPU magic requiring unsafe.
//
//   - Counter: a striped monotonic uint64 (Inc/Add), read as the sum of
//     its stripes. ValueAt exposes a single stripe, which is how exec
//     reports per-worker busy time from one Counter.
//   - Histogram: a log-bucketed power-of-two value/latency histogram
//     with sub-bucket resolution: values bucket by their leading bit
//     (the power of two) plus subBits further bits, giving a bounded
//     relative error of 2^-subBits per recorded value across the whole
//     uint64 range in a fixed ~1.9k-bucket table. Snapshot() folds the
//     stripes into an immutable Snapshot whose Quantile/P50/P99/P999
//     estimates reuse the stats package's nearest-rank convention
//     (stats.CountsQuantile), so the estimates are directly testable
//     against the exact sort-based oracle (stats.Quantile).
//
// # Export
//
// A Registry names metrics and renders them on demand — it is an
// http.Handler emitting the Prometheus text exposition format (counters
// and RegisterFunc's pull-computed gauges as samples, histograms as
// quantile summaries), and it can publish the same snapshot as one expvar
// variable. Export is strictly pull-based: the registry owns no
// goroutines (the repo's nogoroutine invariant — concurrency stays in
// exec and shard), takes no locks on the recording paths, and reading a
// metric never blocks a writer.
//
// # Users
//
// exec.PoolMetrics and exec.Trace instrument the morsel pool (task and
// queue-wait latency, steals, per-worker busy time, and a per-worker
// event ring dumpable as Chrome trace JSON); shard.Metrics instruments
// the engine's per-operation latency and migration cost. Those hooks are
// nil-guarded: an engine or pool without metrics attached pays a single
// pointer check. The engine's read-path and publication counters are not
// hooks: it owns them from construction, bumps them unconditionally and
// files them itself (shard.Engine.Register).
package obs

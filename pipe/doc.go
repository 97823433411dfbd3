// Package pipe composes the repo's relational operators — scan, filter,
// hash join, group-by — into lazy, morsel-streaming pipelines on one
// exec.Pool. It is the one way to run a hash join or a parallel
// group-by here.
//
// A pipeline never materializes an intermediate relation: no filtered
// copy of a scan, no column of join matches waiting for the aggregation.
// A Stream is a lazy description of the query; nothing runs until a
// terminal (Collect, Count, Sink, Drain, GroupBy) drives it, and then
// data moves through the whole operator chain one MorselSize-granular
// batch of (key, value) columns at a time, on the pool's workers:
//
//	seg := pipe.HashJoin(
//		pipe.FromRelation(customers),                       // build side
//		pipe.FromRelation(orders).Filter(bigOrder),         // probe side
//		pipe.JoinConfig{Project: bySegment},
//	)
//	g, err := seg.GroupBy(pipe.Config{}, pipe.GroupConfig{})
//
// The optimizations are structural, not opt-in:
//
//   - Predicate pushdown: Filter and Map stages are fused into the scan
//     (or the join's probe emission) that feeds them. The operator
//     copies a morsel's rows into its worker's batch once, with a plain
//     loop; each stage is a column kernel that then transforms and
//     compacts that batch in place (Filter advances a write cursor only
//     when the predicate holds, Map overwrites), so a chain costs one
//     indirect call per stage per morsel — the user's pred/fn is the
//     only call per row — and a row failing a predicate never leaves
//     the operator that produced it.
//   - Build-side pre-sizing: HashJoin sizes its build table with
//     join.CapacityFor from the build stream's cardinality bound, which
//     every source has (slice lengths, table.Handle.Len, a group-by's
//     group count, or an explicit Hint from a dist tape), so the build
//     never rehashes. The power-of-two sizing leaves
//     the table in (0.25, 0.5], and its scheme is the paper's Figure 8
//     (table.Recommend) walked with that real load factor — LP below 50%,
//     RH otherwise — unless JoinConfig.Scheme pins one.
//   - One build table, no engine: the build is a single fixed table all
//     workers fill through Handle.PutIfAbsentBatch — a compare-and-swap per
//     key, or a batch at a time under the handle's mutex for RH, Cuckoo and
//     chained — and probe with plain GetBatch after the phase barrier; an
//     overrun re-runs it at twice the size. shard.Engine serves only live
//     handles.
//   - No build over an index: when the build side is a bare
//     FromHandle(h), h already is the hash table the join would build, so
//     HashJoin skips the build phase and probes h in place — wait-free,
//     no lock taken on h, no table allocated. The join then sees h as of
//     each probe batch rather than as of one scan, and JoinConfig.Scheme
//     goes unused; a Filter or Map on the build side restores the private
//     build.
//   - Shared scheduling: every phase of every operator runs on one
//     exec.Pool with the established first-error, cancellation
//     (Config.Ctx) and panic-containment conventions; per-worker column
//     scratch is reused across morsels and runs, the join projects its
//     matches in place into the probe batch, and the group-by's result is
//     its first worker local, so steady-state processing does not
//     allocate. A run takes its batches (the join's probe answers ride in
//     one too) and its group-by locals from two small bounded free lists
//     (internal/freelist's) once and gives them back once: whatever GC or
//     P switch comes in between, the next run finds them. The locals a run
//     merges away (and a GroupByStream's drained result) go back unkeyed,
//     unless sized past the lists' bound: a worker resets whichever one it
//     takes to its own config and seed, and mostly re-opens only its group
//     index; a run that fails gives no local back, and a GroupBy
//     terminal's result stays its caller's.
//   - Observability: Config.Metrics attaches per-operator rows in/out,
//     morsel counts and morsel-latency histograms (obs primitives),
//     registrable on an obs.Registry for the /metrics exposition —
//     including a pull-computed selectivity per operator.
//
// Scans cover the in-memory shapes the repo produces: join.Relation and
// raw columns (FromRelation, FromColumns), live tables (FromHandle —
// sharded handles are walked shard-parallel via shard.Engine.RangeShard,
// weakly consistent and correct mid-resize), and finished aggregations
// (FromGroups, or GroupByStream for a mid-pipeline group-by that streams
// its merged groups downstream via agg's Groups iterator).
package pipe

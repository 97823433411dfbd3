// Package repro is a from-scratch Go reproduction of "A Seven-Dimensional
// Analysis of Hashing Methods and its Implications on Query Processing"
// (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015).
//
// The public entry point is table.Open, a workload-aware façade with
// functional options (scheme, capacity, growth threshold, hash family,
// striped partitioning, or a workload description routed through the
// paper's Figure 8 decision graph). The library lives in the subpackages:
//
//	table    — the Open/Handle façade, the hashing schemes (the paper's
//	           five + SoA layout variant) and the Figure 8 decision graph
//	shard    — the concurrent sharded engine (wait-free seqlock reads, incremental resize)
//	exec     — the morsel-driven parallel execution core (bounded worker
//	           pool, morsel scheduling, the shared scatter→gather primitive)
//	hashfn   — the four hash-function classes
//	dist     — the three key distributions
//	stats    — displacement/cluster/chain analysis and Knuth's formulas
//	bench    — the paper's workloads (the WORM table constructor with the
//	           §4.5 memory budget, the RW op tapes), the harness
//	           regenerating every figure of the evaluation through one WORM
//	           and one RW measuring point, and the chaos harness
//	decision — shard-count and worker-count advice for concurrent use
//
// See README.md for a tour, the new-API migration table, and how to
// regenerate the paper's figures ("go run ./cmd/hashbench -experiment
// all"). The batched pipeline is measured by "go test -bench Batch" and
// the single-probe build primitives by "go test -bench BuildSingleProbe
// ./table/".
package repro

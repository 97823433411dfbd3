// Package join holds the relation types equi-joins run over — the
// query-processing use case that motivates the paper (§1: "hashing has
// plenty of applications in modern database systems, including join
// processing") — plus the build-side sizing rule and a reference join.
// The hash join itself is pipe.HashJoin; NestedLoopJoin is the O(n*m)
// oracle the test suites check it against.
//
// Joins here are primary-key / foreign-key joins: build-side keys are
// unique. Should duplicates occur anyway, the first payload per key wins.
// Each match invokes a caller-supplied emit function, so callers can
// materialize, count, or aggregate without intermediate allocation.
package join

import "math"

// Row is one tuple of a relation: a join key and a payload.
type Row struct {
	Key     uint64
	Payload uint64
}

// Relation is a slice of rows.
type Relation []Row

// Emit receives one join match: the key and both payloads.
type Emit func(key, buildPayload, probePayload uint64)

// CapacityFor returns the power-of-two capacity that places n keys at or
// below the target load factor lf — the build-side pre-sizing rule of
// pipe.HashJoin and agg.GroupBy. lf outside (0, 1), NaN included, is
// treated as the join default 0.5. The result stops at the largest power of two an int holds,
// which no table opens: table.Open rejects it.
func CapacityFor(n int, lf float64) int {
	if !(lf > 0 && lf < 1) {
		lf = 0.5
	}
	c := 8
	for float64(n) > lf*float64(c) && c <= math.MaxInt/2 {
		c *= 2
	}
	return c
}

// NestedLoopJoin is the quadratic reference join used as a test oracle.
func NestedLoopJoin(build, probe Relation, emit Emit) int {
	// A build side with duplicate keys joins its first payload per key.
	first := make(map[uint64]uint64, len(build))
	for _, b := range build {
		if _, ok := first[b.Key]; !ok {
			first[b.Key] = b.Payload
		}
	}
	matches := 0
	for _, p := range probe {
		if v, ok := first[p.Key]; ok {
			matches++
			if emit != nil {
				emit(p.Key, v, p.Payload)
			}
		}
	}
	return matches
}

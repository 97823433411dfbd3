package exec

// The one scatter→group-major→gather primitive. Radix-partitioned
// operators and the sharded engine all regroup a key column by the top
// bits of a routing hash before working group-by-group; this file is the
// single implementation of that stable scatter.

import "repro/hashfn"

// Scatter is one stable scatter of a key column into groups (partitions
// or shards): the keys regrouped group-major, the original lane of every
// staged slot, per-group extents, and value/flag staging areas sized to
// match. The scatter is stable — keys of the same group keep their input
// order — so duplicate keys (which always share a group) retain
// sequential semantics when the staged ranges are applied in order.
//
// After Route, group j's staged range is Keys[Starts[j]:Starts[j+1]], and
// staged slot i came from input lane Orig[i]. Vals and OK are scratch
// columns of the same length as Keys for the caller's values (Route
// scatters a value column it is handed) and result flags; the usual cycle is
//
//	apply group j:   over sc.Keys[lo:hi], sc.Vals[lo:hi], sc.OK[lo:hi]
//	gather results:  for i, oi := range sc.Orig { out[oi] = sc.Vals[i] }
//
// A Scatter is meant to be reused: Route grows the columns in place and
// overwrites all of them, so nothing of an earlier call survives into the
// next and steady-state staging allocates nothing. That is how the sharded
// engine uses it — each batch call takes one from a pool for its own
// duration — and a per-worker Scatter kept across morsels works the same
// way. One Scatter serves one Route-to-gather cycle at a time: concurrent
// Route calls are not safe, though concurrent workers may write DISJOINT
// staged ranges of Vals/OK between a Route and the gather. The columns
// keep the capacity of the largest batch routed; an owner that pools
// Scatters should drop one whose cap(Keys) has grown past what it wants
// to keep.
type Scatter struct {
	Keys   []uint64
	Vals   []uint64
	OK     []bool
	Orig   []int32
	Starts []int32

	group []int32
	pos   []int32
	hash  [hashfn.DefaultBatchWidth]uint64
}

// growSlice returns s with length exactly n, reusing its backing array
// when possible.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Route scatters keys into groups groups by the top bits of router's hash
// (group = hash >> shift, the radix scheme the paper cites for parallel
// joins), bulk-hashing the router in batch-width chunks so its dispatch
// is paid once per chunk. shift must be 64 - log2(groups). A non-nil vals,
// as long as keys, lands in Vals in the same pass.
func (sc *Scatter) Route(router hashfn.Function, shift uint, groups int, keys, vals []uint64) {
	sc.group = growSlice(sc.group, len(keys))
	sc.Starts = growSlice(sc.Starts, groups+1)
	group, starts := sc.group, sc.Starts
	clear(starts)
	for base := 0; base < len(keys); base += hashfn.DefaultBatchWidth {
		n := min(hashfn.DefaultBatchWidth, len(keys)-base)
		hashfn.HashBatch(router, keys[base:base+n], sc.hash[:])
		for i := 0; i < n; i++ {
			j := int32(sc.hash[i] >> shift)
			group[base+i] = j
			starts[j+1]++
		}
	}
	for j := 0; j < groups; j++ {
		starts[j+1] += starts[j]
	}
	sc.Keys = growSlice(sc.Keys, len(keys))
	sc.Vals = growSlice(sc.Vals, len(keys))
	sc.OK = growSlice(sc.OK, len(keys))
	sc.Orig = growSlice(sc.Orig, len(keys))
	// One stable counting pass over per-group cursors.
	sc.pos = growSlice(sc.pos, groups)
	pos := sc.pos
	copy(pos, starts[:groups])
	for i, k := range keys {
		j := group[i]
		at := pos[j]
		sc.Keys[at] = k
		sc.Orig[at] = int32(i)
		if vals != nil {
			sc.Vals[at] = vals[i]
		}
		pos[j]++
	}
}

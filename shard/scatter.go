package shard

// The stable scatter→shard-major→gather primitive every cross-shard batch
// call stages its keys through.

import "repro/hashfn"

// scatter is one stable scatter of a key column into groups (shards): the
// keys regrouped group-major, the original lane of every staged slot,
// per-group extents, and value/flag staging areas sized to match. The
// scatter is stable — keys of the same group keep their input order — so
// duplicate keys (which always share a group) retain sequential semantics
// when the staged ranges are applied in order.
//
// After route, group j's staged range is Keys[Starts[j]:Starts[j+1]], and
// staged slot i came from input lane Orig[i]. Vals and OK are scratch
// columns of the same length as Keys for the caller's values (route
// scatters a value column it is handed) and result flags; the usual cycle is
//
//	apply group j:   over sc.Keys[lo:hi], sc.Vals[lo:hi], sc.OK[lo:hi]
//	gather results:  for i, oi := range sc.Orig { out[oi] = sc.Vals[i] }
//
// A scatter is meant to be reused: route grows the columns in place and
// overwrites all of them, so nothing of an earlier call survives into the
// next and steady-state staging allocates nothing. One scatter serves one
// route-to-gather cycle at a time. The columns keep the capacity of the
// largest batch routed, which is why the staging pool drops one grown past
// maxPooledLanes.
type scatter struct {
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
// when possible. A new array gets a quarter's headroom, so batches that
// grow a few lanes at a time remake a column a logarithmic number of
// times, not on every new largest batch.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// route scatters keys into groups groups by the top bits of router's hash
// (group = hash >> shift), bulk-hashing the router in batch-width chunks so
// its dispatch is paid once per chunk. shift must be 64 - log2(groups). A
// non-nil vals, as long as keys, lands in Vals in the same pass.
func (sc *scatter) route(router hashfn.Function, shift uint, groups int, keys, vals []uint64) {
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

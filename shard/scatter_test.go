package shard

import (
	"math/bits"
	"testing"

	"repro/hashfn"
	"repro/internal/prng"
)

// TestScatterStableAndComplete: route regroups the column group-major,
// Orig is a permutation mapping staged slots to input lanes, every staged
// key actually routes to its group, and same-group keys keep input order
// (the stability that preserves duplicate-key semantics). A value column,
// when handed one, lands in Vals beside its key.
func TestScatterStableAndComplete(t *testing.T) {
	const groups = 8
	shift := uint(64 - 3)
	router := hashfn.MultFamily{}.New(99)
	rng := prng.NewXoshiro256(7)
	keys := make([]uint64, 10_000)
	for i := range keys {
		if i > 0 && rng.Uint64n(4) == 0 {
			keys[i] = keys[int(rng.Uint64n(uint64(i)))] // ~25% duplicates
		} else {
			keys[i] = rng.Next()
		}
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	var sc scatter
	for round := 0; round < 2; round++ { // second round reuses the buffers
		carried := [][]uint64{nil, vals}[round]
		sc.route(router, shift, groups, keys, carried)
		if int(sc.Starts[groups]) != len(keys) {
			t.Fatalf("Starts[%d] = %d, want %d", groups, sc.Starts[groups], len(keys))
		}
		seen := make([]bool, len(keys))
		for j := 0; j < groups; j++ {
			lastOrig := int32(-1)
			for i := sc.Starts[j]; i < sc.Starts[j+1]; i++ {
				k := sc.Keys[i]
				if got := int(router.Hash(k) >> shift); got != j {
					t.Fatalf("staged slot %d: key routes to group %d, staged in %d", i, got, j)
				}
				oi := sc.Orig[i]
				if keys[oi] != k {
					t.Fatalf("staged slot %d: Orig %d holds key %d, staged %d", i, oi, keys[oi], k)
				}
				if carried != nil && sc.Vals[i] != vals[oi] {
					t.Fatalf("staged slot %d: value %d, lane %d carried %d", i, sc.Vals[i], oi, vals[oi])
				}
				if seen[oi] {
					t.Fatalf("input lane %d staged twice", oi)
				}
				seen[oi] = true
				if oi <= lastOrig {
					t.Fatalf("group %d not stable: lane %d after %d", j, oi, lastOrig)
				}
				lastOrig = oi
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("input lane %d never staged", i)
			}
		}
	}
}

// TestScatterRegrowsLogarithmically: one scatter fed batches that grow a
// lane at a time — a filtered probe side whose largest batch creeps up —
// remakes its columns a logarithmic number of times, not on every call:
// growSlice leaves a quarter's headroom.
func TestScatterRegrowsLogarithmically(t *testing.T) {
	const groups, widest = 4, 4096
	router := hashfn.MultFamily{}.New(5)
	rng := prng.NewXoshiro256(11)
	keys, vals := make([]uint64, widest), make([]uint64, widest)
	for i := range keys {
		keys[i], vals[i] = rng.Next(), uint64(i)
	}
	var sc scatter
	remakes := 0
	for n := 1; n <= widest; n++ {
		caps := [...]int{cap(sc.Keys), cap(sc.Vals), cap(sc.OK), cap(sc.Orig), cap(sc.group)}
		sc.route(router, 64-2, groups, keys[:n], vals[:n])
		if caps != [...]int{cap(sc.Keys), cap(sc.Vals), cap(sc.OK), cap(sc.Orig), cap(sc.group)} {
			remakes++
		}
	}
	if limit := 4 * bits.Len(widest); remakes > limit {
		t.Fatalf("batches of 1..%d lanes remade the columns %d times, want at most %d", widest, remakes, limit)
	}
}

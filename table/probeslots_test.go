package table

import (
	"fmt"
	"testing"

	"repro/internal/prng"
)

// TestProbeSlotsEndsWhereGetEnds: for every kernel scheme at 50% and 90%
// load, the trace ProbeSlots reports for a hit or a miss ends at the slot
// where Get's walk ends. No slot before the last meets one of Get's stop
// conditions — the key, an empty slot, a line end where Robin Hood's early
// abort fires — and the last one does; and Get agrees with where the trace
// ended.
func TestProbeSlotsEndsWhereGetEnds(t *testing.T) {
	const slots = 1 << 12
	for _, scheme := range KernelSchemes() {
		for _, pct := range []int{50, 90} {
			t.Run(fmt.Sprintf("%s/%d", scheme, pct), func(t *testing.T) {
				c := kernOf(t, mustNew(scheme, Config{InitialCapacity: slots, MaxLoadFactor: 0, Seed: 5}))
				rng := prng.NewXoshiro256(uint64(pct))
				fresh := func() uint64 {
					for {
						k := rng.Next()
						if _, ok := c.Get(k); !ok && !isSentinelKey(k) {
							return k
						}
					}
				}
				hits := make([]uint64, slots*pct/100)
				for i := range hits {
					hits[i] = fresh()
					put(t, c, hits[i], uint64(i))
				}
				misses := make([]uint64, len(hits))
				for i := range misses {
					misses[i] = fresh()
				}
				stops := func(si, si0, key uint64) bool {
					k := c.keyAtS(si)
					return k == key || k == emptyKey || si&c.rEnd == c.rEnd && c.robinAbort(si, si0, k)
				}
				for _, key := range append(hits, misses...) {
					var trace []uint64
					c.ProbeSlots(key, func(slot int) bool {
						trace = append(trace, uint64(slot)<<c.ks)
						return true
					})
					si0, last := trace[0], trace[len(trace)-1]
					for i, si := range trace[:len(trace)-1] {
						if stops(si, si0, key) {
							t.Fatalf("key %#x: Get stops at probe %d (slot %d), ProbeSlots walks on to probe %d",
								key, i, si>>c.ks, len(trace)-1)
						}
					}
					if !stops(last, si0, key) {
						t.Fatalf("key %#x: ProbeSlots ends at slot %d, where Get walks on", key, last>>c.ks)
					}
					if _, ok := c.Get(key); ok != (c.keyAtS(last) == key) {
						t.Fatalf("key %#x: Get found it %v, ProbeSlots ended at slot %d holding %#x",
							key, ok, last>>c.ks, c.keyAtS(last))
					}
				}
			})
		}
	}
}

package table

import (
	"fmt"
	"testing"

	"repro/internal/prng"
	"repro/internal/slab"
)

// TestProbeSlotsEndsWhereGetEnds: for every scheme at 50% and 90% load,
// the trace ProbeSlots reports for a hit or a miss ends at the position
// where Get's walk ends. No position before the last meets one of Get's
// stop conditions — the key; for the kernel an empty slot or a line end
// where Robin Hood's early abort fires; for Cuckoo the last way; for the
// chained tables the end of the chain — and the last one does; and Get
// agrees with where the trace ended.
func TestProbeSlotsEndsWhereGetEnds(t *testing.T) {
	const slots = 1 << 12
	for _, scheme := range AllSchemes() {
		for _, pct := range []int{50, 90} {
			t.Run(fmt.Sprintf("%s/%d", scheme, pct), func(t *testing.T) {
				m := mustNew(scheme, Config{InitialCapacity: slots, MaxLoadFactor: 0, Seed: 5})
				tracer := m.(interface {
					ProbeSlots(key uint64, visit func(slot int) bool)
				})
				rng := prng.NewXoshiro256(uint64(pct))
				fresh := func() uint64 {
					for {
						k := rng.Next()
						if _, ok := m.Get(k); !ok && !isSentinelKey(k) {
							return k
						}
					}
				}
				hits := make([]uint64, slots*pct/100)
				for i := range hits {
					hits[i] = fresh()
					put(t, m, hits[i], uint64(i))
				}
				misses := make([]uint64, len(hits))
				for i := range misses {
					misses[i] = fresh()
				}
				stops, holds := walkEnds(m)
				for _, key := range append(hits, misses...) {
					var trace []int
					tracer.ProbeSlots(key, func(slot int) bool {
						trace = append(trace, slot)
						return true
					})
					last := len(trace) - 1
					for i := range trace[:last] {
						if stops(trace, i, key) {
							t.Fatalf("key %#x: Get stops at probe %d (position %d), ProbeSlots walks on to probe %d",
								key, i, trace[i], last)
						}
					}
					if !stops(trace, last, key) {
						t.Fatalf("key %#x: ProbeSlots ends at position %d, where Get walks on", key, trace[last])
					}
					if _, ok := m.Get(key); ok != (holds(trace[last]) == key) {
						t.Fatalf("key %#x: Get found it %v, ProbeSlots ended at position %d holding %#x",
							key, ok, trace[last], holds(trace[last]))
					}
				}
			})
		}
	}
}

// walkEnds returns, for m's scheme, Get's stop rule — whether the walk
// for key that visited trace ends at trace[i] — and the key a position
// holds (emptyKey when none).
func walkEnds(m Table) (stops func(trace []int, i int, key uint64) bool, holds func(pos int) uint64) {
	switch c := m.(type) {
	case *kern:
		holds = func(pos int) uint64 { return c.keyAtS(uint64(pos) << c.ks) }
		stops = func(trace []int, i int, key uint64) bool {
			si, si0 := uint64(trace[i])<<c.ks, uint64(trace[0])<<c.ks
			k := c.keyAtS(si)
			return k == key || k == emptyKey || si&c.rEnd == c.rEnd && c.robinAbort(si, si0, k)
		}
	case *cuckoo:
		holds = func(pos int) uint64 { return c.slots[pos].key }
		stops = func(trace []int, i int, key uint64) bool {
			return c.slots[trace[i]].key == key || i == c.ways-1
		}
	case *chained:
		n := c.Capacity()
		// entry is the chain entry at pos: nil for ChainedH8's directory
		// slot, an empty inline entry, or a depth past the chain's end.
		entry := func(pos int) *slab.Entry {
			e := c.first(uint64(pos % n))
			d := pos / n
			if c.heads != nil {
				if d == 0 {
					return nil
				}
				d--
			}
			for ; d > 0 && e != nil; d-- {
				e = e.Next
			}
			return e
		}
		holds = func(pos int) uint64 {
			if e := entry(pos); e != nil {
				return e.Key
			}
			return emptyKey
		}
		stops = func(trace []int, i int, key uint64) bool {
			if pos := trace[i]; c.heads != nil && pos < n {
				return c.heads[pos] == nil
			}
			e := entry(trace[i])
			return e == nil || e.Key == key || e.Next == nil
		}
	default:
		panic(fmt.Sprintf("%T: no walk rule", m))
	}
	return stops, holds
}

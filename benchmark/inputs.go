package main

// Input generation shared by the workloads. Keys come from dist (the
// paper's Sparse distribution); everything else — values, pick orders,
// prices — comes from one seeded mixer, so a seed fixes every input.

import (
	"fmt"

	"repro/table"
)

// mix is the splitmix64 finalizer: a bijection on uint64 with good
// avalanche, used as a stateless random function of (seed, index).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// rnd is a counter-mode random stream over mix.
type rnd struct{ state uint64 }

func newRnd(seed, stream uint64) *rnd { return &rnd{state: mix(seed ^ mix(stream))} }

func (r *rnd) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// below returns a value in [0, n).
func (r *rnd) below(n int) int { return int(r.next() % uint64(n)) }

// valueOf is the payload stored under a key in the table workloads:
// never zero, so a wrong or missing value always changes a checksum.
func valueOf(key uint64) uint64 { return mix(key) | 1 }

// putAll inserts the pairs in batchRows-sized PutBatch calls, checking
// that every key was new, and records each call on m.
func putAll(h *table.Handle, keys, vals []uint64, m *meter, o *ops) error {
	for lo := 0; lo < len(keys); lo += batchRows {
		hi := min(lo+batchRows, len(keys))
		t0 := now()
		inserted, err := h.PutBatch(keys[lo:hi], vals[lo:hi])
		m.record(kPut, hi-lo, t0, now())
		if err != nil {
			return fmt.Errorf("PutBatch: %w", err)
		}
		o.check(inserted == hi-lo)
	}
	return nil
}

// sumHits adds up the values of the lanes a GetBatch reported present.
func sumHits(vals []uint64, ok []bool) uint64 {
	var sum uint64
	for i, hit := range ok {
		if hit {
			sum += vals[i]
		}
	}
	return sum
}

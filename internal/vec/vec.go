// Package vec provides portable 4-lane uint64 comparison kernels that stand
// in for the AVX-2 intrinsics used in §7 of the paper.
//
// The paper's SIMD experiment loads four 8-byte keys into a 256-bit register
// (_mm256_load_si256), compares them against the probe key in one
// instruction (_mm256_cmpeq_epi64) and extracts the first matching lane
// from a movemask (_mm256_movemask_pd). Go with only the standard library
// cannot emit those instructions, so this package reproduces the
// *algorithmic structure*: four keys are compared per step with branch-free
// lane comparisons that compile to SETcc/CMOV, the results are packed into a
// 4-bit mask, and the first set bit selects the match — exactly the shape of
// the intrinsic code, minus the data-level parallelism of real vector ALUs.
//
// Two load flavours mirror the paper's layouts:
//
//   - SoA: keys are densely packed ([]uint64), so a "vector load" is four
//     consecutive elements — the cheap case.
//   - AoS: keys are interleaved with values (stride 2), so the four lanes
//     must be gathered from non-contiguous slots — the expensive case the
//     paper attributes to gather-scatter addressing on Haswell.
//
// The relative shape (SoA benefits more from vectorized probing than AoS)
// survives this translation; absolute SIMD speedups of course do not. See
// README's "Regenerating the paper's figures".
package vec

import "math/bits"

// Width is the number of lanes per vector step, matching 256-bit AVX-2
// registers holding 4 x 64-bit keys.
const Width = 4

// Mask4 is a 4-bit lane mask; bit i is set when lane i matched.
type Mask4 uint8

// None reports whether no lane matched.
func (m Mask4) None() bool { return m == 0 }

// First returns the index of the first matching lane. It must only be
// called when m is nonzero.
func (m Mask4) First() int { return bits.TrailingZeros8(uint8(m)) }

// b2u converts a bool to 0/1 without a branch in the generated code.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// CmpEq4 compares the four lanes against needle and returns the lane mask.
// This is the stand-in for _mm256_cmpeq_epi64 + movemask.
func CmpEq4(l0, l1, l2, l3, needle uint64) Mask4 {
	return Mask4(b2u(l0 == needle) |
		b2u(l1 == needle)<<1 |
		b2u(l2 == needle)<<2 |
		b2u(l3 == needle)<<3)
}

// LoadSoA4 loads four consecutive keys starting at keys[i]. The caller must
// guarantee i+3 < len(keys). This is the cheap, aligned SoA vector load.
func LoadSoA4(keys []uint64, i int) (uint64, uint64, uint64, uint64) {
	k := keys[i : i+4 : i+4]
	return k[0], k[1], k[2], k[3]
}

// GatherAoS4 gathers four keys from an interleaved key/value array where
// keys sit at even indices (AoS layout flattened to []uint64, stride 2).
// The four extra address computations per step model the gather penalty the
// paper measured on Haswell.
func GatherAoS4(kv []uint64, slot int) (uint64, uint64, uint64, uint64) {
	base := slot * 2
	k := kv[base : base+8 : base+8]
	return k[0], k[2], k[4], k[6]
}

// FindEqSoA4 returns the lane mask of needle within the four keys starting
// at keys[i].
func FindEqSoA4(keys []uint64, i int, needle uint64) Mask4 {
	l0, l1, l2, l3 := LoadSoA4(keys, i)
	return CmpEq4(l0, l1, l2, l3, needle)
}

// FindEqAoS4 returns the lane mask of needle within the four AoS slots
// starting at slot.
func FindEqAoS4(kv []uint64, slot int, needle uint64) Mask4 {
	l0, l1, l2, l3 := GatherAoS4(kv, slot)
	return CmpEq4(l0, l1, l2, l3, needle)
}

// FindEqOrEmptySoA4 probes the four keys at keys[i..i+3] for either needle
// or the empty sentinel, returning both masks in one pass. Linear-probing
// lookups need both: a needle hit is a successful lookup, an empty hit
// terminates an unsuccessful one.
func FindEqOrEmptySoA4(keys []uint64, i int, needle, empty uint64) (hit, stop Mask4) {
	l0, l1, l2, l3 := LoadSoA4(keys, i)
	return CmpEq4(l0, l1, l2, l3, needle), CmpEq4(l0, l1, l2, l3, empty)
}

// FindEqOrEmptyAoS4 is FindEqOrEmptySoA4 for the interleaved AoS layout.
func FindEqOrEmptyAoS4(kv []uint64, slot int, needle, empty uint64) (hit, stop Mask4) {
	l0, l1, l2, l3 := GatherAoS4(kv, slot)
	return CmpEq4(l0, l1, l2, l3, needle), CmpEq4(l0, l1, l2, l3, empty)
}

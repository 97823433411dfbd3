package hashfn

import "math/bits"

// This file is the bulk-hash half of the Function contract behind the
// batched probe/insert pipeline: hash tables hand over whole batches of keys
// and receive all hash codes in one Function.HashBatch call, so the per-key
// interface dispatch and parameter loads of Function.Hash are paid once per
// batch instead of once per key. Every family reads its parameters into
// locals before the loop, which the compiler keeps in registers; the loops
// are bounds-check-eliminated by the leading dst reslice.

// DefaultBatchWidth is the batch size the hash tables use for their batched
// probe pipelines: large enough to amortize per-call overhead and to keep
// dozens of independent probe streams in flight, small enough that one
// batch of keys, codes and cursors stays resident in L1.
const DefaultBatchWidth = 64

// HashBatch hashes all keys into dst (which must be at least as long as
// keys): fn.HashBatch(keys, dst).
func HashBatch(fn Function, keys []uint64, dst []uint64) { fn.HashBatch(keys, dst) }

// HashBatch implements Function: one multiplication per key, multiplier held
// in a register.
func (m Mult) HashBatch(keys []uint64, dst []uint64) {
	z := m.z
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = k * z
	}
}

// HashBatch implements Function with the 128-bit parameters loaded once.
func (m MultAdd) HashBatch(keys []uint64, dst []uint64) {
	aHi, aLo, bHi, bLo := m.aHi, m.aLo, m.bHi, m.bLo
	dst = dst[:len(keys)]
	for i, x := range keys {
		hi, lo := bits.Mul64(aLo, x)
		hi += aHi * x
		_, carry := bits.Add64(lo, bLo, 0)
		hi, _ = bits.Add64(hi, bHi, carry)
		dst[i] = hi
	}
}

// HashBatch implements Function. The eight 2 KiB tables are hot in L1 across
// the whole batch, so only the first key of a batch pays the warm-up
// misses the paper charges to Tab.
func (t *Tab) HashBatch(keys []uint64, dst []uint64) {
	tab := &t.t
	dst = dst[:len(keys)]
	for i, x := range keys {
		dst[i] = tab[0][byte(x)] ^
			tab[1][byte(x>>8)] ^
			tab[2][byte(x>>16)] ^
			tab[3][byte(x>>24)] ^
			tab[4][byte(x>>32)] ^
			tab[5][byte(x>>40)] ^
			tab[6][byte(x>>48)] ^
			tab[7][byte(x>>56)]
	}
}

// HashBatch implements Function: the finalizer chain per key, seed hoisted.
func (m Murmur) HashBatch(keys []uint64, dst []uint64) {
	seed := m.seed
	dst = dst[:len(keys)]
	for i, x := range keys {
		key := x ^ seed
		key ^= key >> 33
		key *= 0xff51afd7ed558ccd
		key ^= key >> 33
		key *= 0xc4ceb9fe1a85ec53
		key ^= key >> 33
		dst[i] = key
	}
}

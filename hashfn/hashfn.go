// Package hashfn implements the four hash-function classes studied in
// "A Seven-Dimensional Analysis of Hashing Methods and its Implications on
// Query Processing" (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015), §3:
//
//   - Mult: multiply-shift (Dietzfelbinger et al.), a universal family and
//     the cheapest to evaluate (one multiplication, one shift).
//   - MultAdd: multiply-add-shift (Dietzfelbinger), 2-independent; for
//     64-bit keys it needs 128-bit arithmetic, provided here by math/bits.
//   - Tab: simple tabulation hashing (Pătraşcu, Thorup), 3-independent;
//     eight 256-entry tables of random 64-bit codes XOR-ed together.
//   - Murmur: the Murmur3 64-bit finalizer, the paper's representative of
//     engineered hash functions without formal guarantees.
//
// Every function maps a 64-bit key to a full 64-bit hash code. Hash tables
// in package table derive a d-bit slot index by taking the TOP d bits
// (h >> (64-d)). For Mult and MultAdd that is exactly the paper's
// "div 2^(w-d)" — the high-order bits are where the guarantees live — and
// for Tab and Murmur any bit selection is equally good.
//
// Every Function also hashes a whole batch of keys per call (HashBatch,
// batch.go); the tables' batched probes, inserts and the sharded engine's
// scatter hash each 64-key chunk that way.
//
// Functions are created through a Family, which draws fresh random
// parameters from a seed. Cuckoo hashing uses this to re-draw functions on
// a rehash, exactly as the paper describes.
package hashfn

import (
	"fmt"
	"math/bits"

	"repro/internal/prng"
)

// Function is a hash function from 64-bit keys to 64-bit hash codes.
//
// Implementations are immutable after construction and safe for concurrent
// use by multiple goroutines.
type Function interface {
	// Hash returns the 64-bit hash code of x.
	Hash(x uint64) uint64
	// HashBatch sets dst[i] = Hash(keys[i]) for every i; dst must be at
	// least as long as keys. It is the bulk path of the batched pipeline
	// (batch.go).
	HashBatch(keys []uint64, dst []uint64)
	// Name returns the short name used in the paper's plots, e.g. "Mult".
	Name() string
}

// Family constructs members of a hash-function class from random seeds.
type Family interface {
	// New draws a fresh function with parameters derived from seed.
	// Distinct seeds yield (with overwhelming probability) distinct
	// functions.
	New(seed uint64) Function
	// Name returns the family name, e.g. "Mult".
	Name() string
}

// ---------------------------------------------------------------------------
// Multiply-shift
// ---------------------------------------------------------------------------

// Mult is the multiply-shift function h_z(x) = (x*z mod 2^64) div 2^(64-d),
// realized here as the full product x*z mod 2^64; consumers take the top d
// bits. z must be odd. The family {h_z : z odd} is universal: for x != y the
// collision probability on a table of size 2^d is at most 2/2^d.
type Mult struct {
	z uint64
}

// NewMult returns the multiply-shift function with multiplier z.
// If z is even it is made odd (the family is defined over odd multipliers).
func NewMult(z uint64) Mult { return Mult{z: z | 1} }

// Hash returns x*z mod 2^64. The top bits are the high-quality bits.
func (m Mult) Hash(x uint64) uint64 { return x * m.z }

// Name implements Function.
func (Mult) Name() string { return "Mult" }

// MultFamily draws Mult functions with random odd multipliers.
type MultFamily struct{}

// New implements Family.
func (MultFamily) New(seed uint64) Function {
	return NewMult(prng.Mix(seed) | 1)
}

// Name implements Family.
func (MultFamily) Name() string { return "Mult" }

// ---------------------------------------------------------------------------
// Multiply-add-shift
// ---------------------------------------------------------------------------

// MultAdd is the multiply-add-shift function
//
//	h_{a,b}(x) = ((a*x + b) mod 2^128) div 2^(128-d)
//
// for 64-bit keys, evaluated with 128-bit arithmetic via math/bits (the
// "natively unsupported" arithmetic the paper had to emulate with six
// additions; Go exposes the CPU's 64x64->128 multiply directly). Taking
// the high 64 bits of the 128-bit result and then the top d bits of those
// is exactly the paper's div. The family is 2-independent: collision
// probability 1/2^d.
type MultAdd struct {
	aHi, aLo uint64 // a is a 128-bit odd integer (aHi:aLo)
	bHi, bLo uint64 // b is a 128-bit integer (bHi:bLo)
}

// NewMultAdd returns the multiply-add-shift function with the given 128-bit
// parameters a = aHi:aLo and b = bHi:bLo. aLo is forced odd.
func NewMultAdd(aHi, aLo, bHi, bLo uint64) MultAdd {
	return MultAdd{aHi: aHi, aLo: aLo | 1, bHi: bHi, bLo: bLo}
}

// Hash returns the high 64 bits of (a*x + b) mod 2^128.
func (m MultAdd) Hash(x uint64) uint64 {
	// 128-bit product of the 128-bit a with the 64-bit x, kept mod 2^128:
	// (aHi:aLo) * x = (aLo*x) + (aHi*x << 64).
	hi, lo := bits.Mul64(m.aLo, x)
	hi += m.aHi * x // low 64 bits of aHi*x land in the high word
	// Add b with carry propagation.
	lo, carry := bits.Add64(lo, m.bLo, 0)
	hi, _ = bits.Add64(hi, m.bHi, carry)
	_ = lo
	return hi
}

// Name implements Function.
func (MultAdd) Name() string { return "MultAdd" }

// MultAddFamily draws MultAdd functions with random 128-bit parameters.
type MultAddFamily struct{}

// New implements Family.
func (MultAddFamily) New(seed uint64) Function {
	sm := prng.NewSplitMix64(seed)
	return NewMultAdd(sm.Next(), sm.Next(), sm.Next(), sm.Next())
}

// Name implements Family.
func (MultAddFamily) Name() string { return "MultAdd" }

// ---------------------------------------------------------------------------
// Tabulation hashing
// ---------------------------------------------------------------------------

// Tab is simple tabulation hashing over the eight bytes of the key:
//
//	h(x) = T1[c1] XOR T2[c2] XOR ... XOR T8[c8]
//
// where x = c1..c8 and each Ti holds 256 random 64-bit codes. The eight
// tables occupy 16 KiB, fitting comfortably in L1 (§3.3). Filled with
// random data the scheme is 3-independent, and by Pătraşcu–Thorup it gives
// linear probing constant expected time per operation.
type Tab struct {
	t [8][256]uint64
}

// NewTab returns a tabulation function whose tables are filled from seed.
func NewTab(seed uint64) *Tab {
	sm := prng.NewSplitMix64(seed)
	t := &Tab{}
	for i := range t.t {
		for j := range t.t[i] {
			t.t[i][j] = sm.Next()
		}
	}
	return t
}

// Hash XORs the eight table entries selected by the key's bytes.
func (t *Tab) Hash(x uint64) uint64 {
	return t.t[0][byte(x)] ^
		t.t[1][byte(x>>8)] ^
		t.t[2][byte(x>>16)] ^
		t.t[3][byte(x>>24)] ^
		t.t[4][byte(x>>32)] ^
		t.t[5][byte(x>>40)] ^
		t.t[6][byte(x>>48)] ^
		t.t[7][byte(x>>56)]
}

// Name implements Function.
func (*Tab) Name() string { return "Tab" }

// TabFamily draws tabulation functions with fresh random tables.
type TabFamily struct{}

// New implements Family.
func (TabFamily) New(seed uint64) Function { return NewTab(seed) }

// Name implements Family.
func (TabFamily) Name() string { return "Tab" }

// ---------------------------------------------------------------------------
// Murmur hashing
// ---------------------------------------------------------------------------

// Murmur is the Murmur3 64-bit finalizer (Appleby), the paper's §3.4
// representative of engineered hash functions: two multiplications and
// three xor-shifts, no formal independence guarantees, excellent empirical
// randomization.
//
// The finalizer itself is parameterless; the family XORs a random seed into
// the key first so that independent members can be drawn (needed for Cuckoo
// rehashing). A zero seed gives the textbook finalizer.
type Murmur struct {
	seed uint64
}

// NewMurmur returns the Murmur3 finalizer pre-seeded with seed.
func NewMurmur(seed uint64) Murmur { return Murmur{seed: seed} }

// Hash applies the Murmur3 64-bit finalizer to x XOR seed.
func (m Murmur) Hash(x uint64) uint64 {
	key := x ^ m.seed
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key
}

// Name implements Function.
func (Murmur) Name() string { return "Murmur" }

// MurmurFamily draws seeded Murmur finalizers.
type MurmurFamily struct{}

// New implements Family.
func (MurmurFamily) New(seed uint64) Function {
	return NewMurmur(prng.Mix(seed))
}

// Name implements Family.
func (MurmurFamily) Name() string { return "Murmur" }

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Families returns the four families in the paper's order:
// Mult, MultAdd, Tab, Murmur.
func Families() []Family {
	return []Family{MultFamily{}, MultAddFamily{}, TabFamily{}, MurmurFamily{}}
}

// FamilyByName returns the family with the given name (case-sensitive,
// matching the paper's labels: "Mult", "MultAdd", "Tab", "Murmur").
func FamilyByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("hashfn: unknown family %q", name)
}

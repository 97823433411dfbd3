package table

// This file holds the open-addressing probe kernel's schemes (kernel.go).
// The paper's §2 observation is that its probing schemes differ only along
// a few orthogonal dimensions, so a kernel scheme is one choice per
// dimension: one kernSpec row of kernSchemes.
//
//	dimension (paper)            kernSpec field   false / true
//	probe sequence (§2.2–2.5)    quad             linear / triangular quadratic
//	slot layout (§7)             soa              AoS / SoA (aosView, soaView)
//	displacement on insert       robin            first come / Robin Hood
//	deletion strategy            derived          see below
//
// The deletion strategy is derived rather than free-standing, because the
// probe sequence dictates it: a linear sequence shifts later entries of
// the cluster back into the hole (Knuth's Algorithm R; under robin it is
// §2.4's partial-cluster rehash, which stops early), and a quadratic one,
// whose probes are not adjacent slots, must tombstone (§2.3).
//
// newKern reads a row once, at construction: its choices are hoisted into
// the kernel's loop-invariant state (probe step parameters, column views,
// feature flags), so the one shared probe loop carries no per-slot
// dispatch of any kind. Two representation tricks make that possible:
//
//   - Both probe sequences are instances of i += step; step += inc,
//     starting from step=1. Linear probing is inc=0; triangular quadratic
//     probing is inc=1 (the offsets 1, 2, 3, ... accumulate to the
//     triangular numbers), so advancing a probe sequence is two adds and
//     a mask for every scheme.
//   - Both slot layouts are column views over []uint64 storage: the key
//     of slot i lives at kc[i<<ks] and its value at vc[(i<<ks)|ks], with
//     ks=1 for the interleaved AoS array and ks=0 for the split SoA
//     arrays. Slot access compiles to direct array indexing either way.
//
// An earlier iteration expressed the same dimensions as type parameters
// of a generic kernel, relying on monomorphization to specialize the
// loops. Go's gcshape stenciling put a dictionary-dispatched call on
// every per-slot policy use (3x on the probe benchmarks); hoisting the
// choices into loop-invariant registers achieves the specialization
// with a single copy of every loop instead.

import "unsafe"

// kernSpec is one kernel scheme: its choice along each design dimension.
type kernSpec struct {
	// quad selects triangular quadratic probing, h(k, i) = h'(k) + i/2 +
	// i²/2 (§2.3), over linear probing, h(k, i) = h'(k) + i (§2.2). A
	// quadratic sequence is a permutation of any power-of-two table, so,
	// like a linear one, it reaches the one truly empty slot the kernel
	// keeps wherever that slot lies, and every probe loop terminates on
	// it. A linear sequence's consecutive probes are adjacent slots, which
	// enables backward-shift deletion (Algorithm R) and O(1) displacement
	// computation.
	quad bool
	// soa selects the struct-of-arrays slot layout of §7 (soaView) over
	// the array-of-structs layout of §2 (aosView).
	soa bool
	// robin enables displacement-ordered (Robin Hood) insertion, the
	// cache-line-granular early abort for unsuccessful lookups, and the
	// early stop of backward-shift deletion (§2.4).
	robin bool
}

// kernSchemes holds every scheme the probe kernel serves, one row each.
var kernSchemes = map[Scheme]kernSpec{
	// LP is open addressing with linear probing in array-of-structs layout
	// (§2.2 of the paper). It is the simplest probing scheme: on a
	// collision the next slots are scanned circularly until a free one is
	// found. Its strengths are minimal code complexity and perfectly
	// sequential memory access; its weakness is primary clustering at high
	// load factors.
	//
	// Deletion is backward shift (Knuth's Algorithm R, TAOCP Vol. 3,
	// §6.4): the rest of the cluster is walked to its end, and each entry
	// whose home does not lie between the hole and itself moves into the
	// hole, which moves along with it. The table is left exactly as if the
	// key had never been inserted, so deletes and inserts at a steady load
	// never lengthen a probe.
	SchemeLP: {},

	// LPSoA is linear probing in struct-of-arrays layout (§7 of the
	// paper): keys and values live in two separate, aligned arrays, like a
	// column layout. Compared to the array-of-structs LP:
	//
	//   - a successful probe must touch at least two cache lines (one in
	//     the key array, one in the value array), which hurts short probe
	//     sequences;
	//   - long probe sequences scan only keys — half the bytes of AoS —
	//     which helps at high load factors;
	//   - densely packed keys make vectorized comparison natural, which is
	//     why the paper's AVX-2 variant favours SoA. Go emits no vector
	//     instructions, so both layouts share the one scalar kernel (see
	//     EXPERIMENTS.md, "Figure 7 SIMD").
	//
	// Semantics are identical to LP, including the backward-shift
	// deletion: the two rows differ in the layout dimension alone.
	SchemeLPSoA: {soa: true},

	// QP is open addressing with quadratic probing (§2.3 of the paper):
	// the i-th probe lands at
	//
	//	h(k, i) = (h'(k) + c1*i + c2*i^2) mod l, with c1 = c2 = 1/2,
	//
	// i.e. the probe offsets are the triangular numbers 0, 1, 3, 6, 10, ...
	// With a power-of-two capacity this particular parameterization is a
	// permutation of the slots: as long as a free slot exists, it will be
	// found. Compared to linear probing, QP trades some locality (after
	// the third probe every step lands on a new cache line) for a reduced
	// tendency to primary clustering; it still exhibits secondary
	// clustering because two keys that collide on their first probe share
	// their entire probe sequence.
	//
	// Deletion places a tombstone: the backward shift of the linear rows
	// has no analogue here because probe sequences through a slot are not
	// physically contiguous. Inserts recycle tombstones; tombstone pressure
	// triggers an in-place rehash when growth is enabled, and when it is
	// disabled a table rehashes in place only once its tombstones stand
	// between it and its last empty slot.
	SchemeQP: {quad: true},

	// RH is the paper's tuned Robin Hood hashing on linear probing (§2.4):
	// exactly LP with the displacement dimension flipped, which is the
	// paper's own description of the scheme. It keeps the probe sequences
	// of linear probing but resolves every collision in favour of the
	// "poorer" key — the one farther from its optimal slot — which
	// minimizes the variance of displacements without changing their sum.
	// The established ordering buys a cheap early-abort criterion for
	// unsuccessful lookups: while probing for k at distance d, an entry
	// whose own displacement is smaller than d proves k is absent (k would
	// have robbed that slot during insertion).
	//
	// Recomputing the probed entry's displacement on every step is what
	// the paper found prohibitively expensive; their tuned variant —
	// reproduced here — performs the check once per cache line (every 4th
	// slot with 16-byte AoS slots), which balances the overhead on
	// successful probes against early termination of unsuccessful ones.
	//
	// Deletion uses partial cluster rehash rather than tombstones
	// (tombstones in RH would need to carry the deleted entry's
	// displacement to preserve the ordering): the hole is filled by
	// shifting the remainder of the cluster back one slot, up to the first
	// entry in its home slot, which re-establishes every invariant and is
	// exactly the result of rehashing the cluster tail in place. It is
	// LP's backward shift, whose walk the ordering lets stop there.
	SchemeRH: {robin: true},
}

// colView is the unified slot addressing of aosView and soaView: the key
// of slot i lives at kc[i<<ks], its value at vc[(i<<ks)|ks]. Exactly
// one of slots (AoS) or keys/vals (SoA) is non-nil and owns the storage;
// kc and vc alias it.
type colView struct {
	kc []uint64 // key column view
	vc []uint64 // value column view
	ks uint64   // index scale: 1 = interleaved AoS, 0 = split SoA

	slots []pair   // AoS backing array (nil under SoA)
	keys  []uint64 // SoA key column (nil under AoS)
	vals  []uint64 // SoA value column (nil under AoS)
}

// aosView returns capacity zeroed slots in the array-of-structs layout:
// 16-byte key/value pairs in one array, the default layout of §2.
func aosView(capacity int) colView {
	slots := makeLarge[pair](capacity)
	// View the pair array as its underlying uint64 words (a pair is
	// exactly two uint64s, so the aliasing is layout-exact): keys sit at
	// even words, values at odd ones, so a probe over the key column
	// reads at stride 2. The view shares the backing array, so
	// it and slots always hold the same entries (FuzzColumnView checks).
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(slots))), 2*capacity)
	return colView{kc: words, vc: words, ks: 1, slots: slots}
}

// soaView returns capacity zeroed slots in the struct-of-arrays layout of
// §7: keys and values in two parallel arrays, like a column layout. A
// successful probe touches at least two cache lines (key column + value
// column), but long walks scan only the densely packed key column.
func soaView(capacity int) colView {
	keys := makeLarge[uint64](capacity)
	vals := makeLarge[uint64](capacity)
	return colView{kc: keys, vc: vals, keys: keys, vals: vals}
}

// hugePageBytes is the size of a transparent huge page on x86-64 (and on
// arm64 with 4 KiB base pages): one page-table entry maps 2 MiB, not 4 KiB.
const hugePageBytes = 2 << 20

// makeLarge is make([]T, n) for a table's big arrays — both slot layouts,
// Cuckoo's slots and the chained directories. Their probes land at random
// far beyond what the TLB covers, so on 4 KiB pages most of them pay a
// page walk on top of the cache miss. makeLarge advises the array's
// 2 MiB-aligned interior for huge pages (adviseHugePages): pages the array
// touches first later fault in whole, and pages the heap had already
// faulted in at 4 KiB are collapsed. An array with no aligned 2 MiB page
// inside gets no advice and costs no system call. The advice is a hint
// only; where it is refused or unsupported the array is an ordinary one.
func makeLarge[T any](n int) []T {
	s := make([]T, n)
	var elem T
	base := unsafe.Pointer(unsafe.SliceData(s))
	off, size := hugeInterior(uintptr(base), uintptr(n)*unsafe.Sizeof(elem))
	if size > 0 {
		// The interior is derived from the array's own base, so checkptr
		// sees an in-bounds pointer into the one allocation.
		adviseHugePages(unsafe.Slice((*byte)(unsafe.Add(base, off)), size))
	}
	return s
}

// hugeInterior returns the largest run of whole, 2 MiB-aligned pages
// inside [addr, addr+size), as an offset from addr and a length; the
// length is 0 when no aligned 2 MiB page fits.
func hugeInterior(addr, size uintptr) (off, n uintptr) {
	lo := (addr + hugePageBytes - 1) &^ (hugePageBytes - 1)
	hi := (addr + size) &^ (hugePageBytes - 1)
	if hi <= lo {
		return 0, 0
	}
	return lo - addr, hi - lo
}

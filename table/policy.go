package table

// This file defines the policy types behind the open-addressing probe
// kernel (kernel.go). The paper's §2 observation is that its probing
// schemes differ only along a few orthogonal dimensions; here each
// dimension is an actual type, and a scheme is one choice per dimension:
//
//	dimension (paper)            policy type      implementations
//	probe sequence (§2.2–2.5)    probePolicy      linearSeq, quadSeq, dhSeq
//	slot layout (§7)             layoutPolicy     aosLayout, soaLayout
//	displacement on insert       displacePolicy   noDisplace, robinDisplace
//	deletion strategy            derived          see below
//
// The deletion policy is derived rather than free-standing, because the
// probe sequence dictates it: robinDisplace implies partial-cluster
// rehash (backward shifting, §2.4), contiguous sequences take the
// optimized tombstone strategy (§2.2), and non-contiguous ones must
// tombstone unconditionally (§2.3).
//
// Policies are consulted at construction time only: their decisions are
// hoisted into the kernel's loop-invariant state (probe step parameters,
// column views, feature flags), so the one shared probe loop carries no
// per-slot dispatch of any kind. Two representation tricks make that
// possible:
//
//   - All three probe sequences are instances of i += step; step += inc.
//     Linear probing is step=1, inc=0; triangular quadratic probing is
//     step=1, inc=1 (the offsets 1, 2, 3, ... accumulate to the
//     triangular numbers); double hashing is step=h2(k), inc=0. probeSpec
//     captures exactly this, so advancing a probe sequence is two adds
//     and a mask for every scheme.
//   - Both slot layouts are column views over []uint64 storage: the key
//     of slot i lives at kc[i<<ks] and its value at vc[(i<<ks)|ks], with
//     ks=1 for the interleaved AoS array and ks=0 for the split SoA
//     arrays. Slot access compiles to direct array indexing either way.
//
// An earlier iteration expressed the same dimensions as type parameters
// of a generic kernel, relying on monomorphization to specialize the
// loops. Go's gcshape stenciling put a dictionary-dispatched call on
// every per-slot policy use (3x on the probe benchmarks); hoisting the
// policies into loop-invariant registers achieves the specialization
// with a single copy of every loop instead.

import "unsafe"

// probeSpec is a probe sequence reduced to the kernel's uniform stepping
// model: the i-th advance moves by step, then step grows by inc.
type probeSpec struct {
	// lowBitsStride derives the initial step from the key's hash code —
	// (hash & mask) | 1, double hashing's h2 — instead of 1. Odd strides
	// are coprime to the power-of-two capacity, so such sequences are
	// full permutations.
	lowBitsStride bool
	// inc is added to the step after every probe: 0 keeps a fixed
	// stride, 1 yields the triangular quadratic sequence.
	inc uint64
	// bounded marks sequences needing an explicit full-sweep termination
	// guard: they are permutations of the table, so after capacity
	// probes every slot has been seen and the key is absent. Unbounded
	// (linear) sequences instead rely on the kernel keeping at least one
	// truly empty slot for probe loops to terminate on — which is also
	// why bounded schemes may fill to 100% occupancy while linear ones
	// refuse the last slot.
	bounded bool
	// contiguous marks sequences whose consecutive probes are adjacent
	// slots, which enables the optimized tombstone deletion (§2.2) and
	// O(1) displacement computation.
	contiguous bool
}

// probePolicy is the probe-sequence dimension: the order in which slots
// are examined after a collision.
type probePolicy interface{ probe() probeSpec }

// linearSeq probes slots circularly: h(k, i) = h'(k) + i (§2.2).
type linearSeq struct{}

func (linearSeq) probe() probeSpec { return probeSpec{contiguous: true} }

// quadSeq is triangular-number quadratic probing: h(k, i) = h'(k) + i/2 +
// i²/2 (§2.3), a permutation of any power-of-two table.
type quadSeq struct{}

func (quadSeq) probe() probeSpec { return probeSpec{inc: 1, bounded: true} }

// dhSeq is double hashing: h(k, i) = h1(k) + i*h2(k), with h2 drawn from
// the low hash bits forced odd (see doubleHashing).
type dhSeq struct{}

func (dhSeq) probe() probeSpec { return probeSpec{lowBitsStride: true, bounded: true} }

// colView is the unified slot addressing produced by a layoutPolicy: the
// key of slot i lives at kc[i<<ks], its value at vc[(i<<ks)|ks]. Exactly
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

// layoutPolicy is the §7 slot-layout dimension: how a capacity's worth of
// key/value slots is stored and addressed.
type layoutPolicy interface {
	// alloc returns a view over capacity zeroed slots.
	alloc(capacity int) colView
	// perLine is how many slots share one 64-byte cache line of the key
	// column — the batch walk's yield granularity and the Robin Hood
	// early-abort cadence.
	perLine() uint64
}

// aosLayout is the array-of-structs layout: 16-byte key/value pairs in
// one array, the default layout of §2.
type aosLayout struct{}

func (aosLayout) alloc(capacity int) colView {
	slots := makeLarge[pair](capacity)
	// View the pair array as its underlying uint64 words (a pair is
	// exactly two uint64s, so the aliasing is layout-exact): keys sit at
	// even words, values at odd ones, so a probe over the key column
	// reads at stride 2. The view shares the backing array, so
	// it and slots always hold the same entries (FuzzColumnView checks).
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(slots))), 2*capacity)
	return colView{kc: words, vc: words, ks: 1, slots: slots}
}
func (aosLayout) perLine() uint64 { return slotsPerCacheLine }

// soaKeysPerLine is how many 8-byte key-column entries share a 64-byte
// cache line — twice the AoS granularity, the §7 "half the bytes"
// advantage of long SoA probe sequences.
const soaKeysPerLine = 8

// soaLayout is the struct-of-arrays layout of §7: keys and values in two
// parallel arrays, like a column layout. A successful probe touches at
// least two cache lines (key column + value column), but long walks scan
// only the densely packed key column.
type soaLayout struct{}

func (soaLayout) alloc(capacity int) colView {
	keys := makeLarge[uint64](capacity)
	vals := makeLarge[uint64](capacity)
	return colView{kc: keys, vc: vals, keys: keys, vals: vals}
}
func (soaLayout) perLine() uint64 { return soaKeysPerLine }

// displacePolicy is the collision-arbitration dimension: whether an
// insert may displace already-resident entries.
type displacePolicy interface {
	// robinHood enables displacement-ordered (Robin Hood) insertion,
	// the cache-line-granular early abort for unsuccessful lookups, and
	// backward-shift deletion (§2.4).
	robinHood() bool
}

// noDisplace is first-come-first-served slot ownership.
type noDisplace struct{}

func (noDisplace) robinHood() bool { return false }

// robinDisplace resolves every collision in favour of the key farther
// from its optimal slot (§2.4).
type robinDisplace struct{}

func (robinDisplace) robinHood() bool { return true }

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

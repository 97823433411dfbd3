// Package table implements the five hashing schemes studied in
// "A Seven-Dimensional Analysis of Hashing Methods and its Implications on
// Query Processing" (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015), §2:
//
//   - ChainedH8: classic chained hashing with an 8-byte (pointer-only)
//     directory and slab-allocated 24-byte entries.
//   - ChainedH24: chained hashing with a widened 24-byte directory slot
//     that inlines the first entry of every bucket.
//   - LP: open addressing with linear probing in array-of-structs layout,
//     optimized tombstone deletion.
//   - QP: triangular-number quadratic probing (c1 = c2 = 1/2 on
//     power-of-two capacities, guaranteeing full-table coverage).
//   - RH: the paper's tuned Robin Hood hashing on linear probing, with
//     displacement-ordered insertion, cache-line-granular early abort for
//     unsuccessful lookups, and partial-cluster-rehash deletion.
//   - CuckooH4: k-ary Cuckoo hashing (default k = 4).
//
// plus LPSoA, the struct-of-arrays layout variant used by the paper's §7
// layout study.
//
// LP, LPSoA, QP and RH are one probe kernel (kernel.go), each scheme a
// row of the paper's design dimensions (kernSchemes in policy.go): probe
// sequence x slot layout x displacement, with the deletion strategy
// derived from them. ChainedH8 and ChainedH24 are one chained core
// (chained.go) whose directory layout — 8-byte head pointers or 24-byte
// slots with the first entry inline — is chosen by the scheme. Chained
// hashing and Cuckoo keep structurally different cores but share the
// sentinel routing and batch staging machinery.
//
// There are two ways in. Open builds a Handle, the workload-aware façade
// most callers want. New builds one raw scheme behind the Table contract,
// for shard.Engine's NewTable and for analysis tools; the per-scheme
// diagnostics (Displacements, ChainLengths, WayOccupancy, ProbeSlots)
// are reached from it through interface assertions.
//
// All tables store 64-bit integer keys and 64-bit values with map
// semantics (Put is an upsert). A raw table has one writer at a time and
// no internal locking, matching the paper's setting; concurrent use goes
// through a Handle (see its concurrency contract).
//
// # Sentinel keys
//
// Open-addressing slots are 16-byte key/value pairs exactly like the
// paper's; slot emptiness is encoded in the key itself (empty = 0,
// tombstone = 2^64-1). The two real keys 0 and 2^64-1 are nevertheless
// fully supported: they are routed to two dedicated side fields, so the
// map domain is the complete uint64 space. The chained core routes key 0
// the same way, in both directory layouts, so that an empty inline entry
// is simply one whose key is 0.
//
// # Huge pages
//
// A table's big arrays — the slot arrays of both layouts, Cuckoo's slots
// and the chained directories — are ordinary Go heap slices whose
// 2 MiB-aligned interior is advised for transparent huge pages on Linux
// (makeLarge: MADV_HUGEPAGE, then MADV_COLLAPSE). Random probes over an
// array far larger than the TLB covers then miss the TLB far less often.
// The advice outlives the array. MADV_HUGEPAGE splits the heap's mapping
// at the advised range, and the range keeps its flag after the array is
// freed, so later heap objects placed there may fault in 2 MiB pages too.
// That shows in the process's RSS, not in runtime.MemStats.HeapAlloc.
// Where THP is off ("never") or madvise refuses, nothing changes.
package table

import (
	"math/bits"

	"repro/hashfn"
	"repro/shard"
)

// Table is the one contract every scheme implements: New returns one,
// shard.Engine stripes them, and Handle wraps either. Put, PutBatch and
// the other mutations report ErrFull (wrapped in a *FullError) on a full
// growth-disabled table and leave its capacity as it was. The interface is
// declared in shard so that the engine needs no import of this package.
type Table = shard.Table

const (
	// emptyKey marks a free open-addressing slot.
	emptyKey uint64 = 0
	// tombKey marks a deleted open-addressing slot (tombstone).
	tombKey uint64 = ^uint64(0)
	// pairBytes is the size of one AoS slot: 8-byte key + 8-byte value.
	pairBytes = 16
)

// pair is one array-of-structs slot: a key and its value, 16 bytes.
type pair struct {
	key uint64
	val uint64
}

// sentinels stores the two keys whose literal values collide with the
// empty and tombstone markers. They live outside the slot array.
type sentinels struct {
	hasEmpty bool   // key 0 present
	emptyVal uint64 // value for key 0
	hasTomb  bool   // key 2^64-1 present
	tombVal  uint64 // value for key 2^64-1
}

// isSentinelKey reports whether key needs sentinel routing.
func isSentinelKey(key uint64) bool { return key == emptyKey || key == tombKey }

func (s *sentinels) get(key uint64) (uint64, bool) {
	if key == emptyKey {
		return s.emptyVal, s.hasEmpty
	}
	return s.tombVal, s.hasTomb
}

func (s *sentinels) delete(key uint64) bool {
	if key == emptyKey {
		had := s.hasEmpty
		s.hasEmpty, s.emptyVal = false, 0
		return had
	}
	had := s.hasTomb
	s.hasTomb, s.tombVal = false, 0
	return had
}

// rmw is the sentinel-side read-modify-write primitive behind GetOrPut,
// Upsert and Put: with fn nil and overwrite false it is GetOrPut(val);
// with overwrite true it is Put(val); with fn set it is Upsert(fn). It
// returns the value now stored and whether the key already existed.
func (s *sentinels) rmw(key, val uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool) {
	has, stored := &s.hasEmpty, &s.emptyVal
	if key == tombKey {
		has, stored = &s.hasTomb, &s.tombVal
	}
	if *has {
		if fn != nil {
			*stored = fn(*stored, true)
		} else if overwrite {
			*stored = val
		}
		return *stored, true
	}
	v := val
	if fn != nil {
		v = fn(0, false)
	}
	*has, *stored = true, v
	return v, false
}

func (s *sentinels) len() int {
	n := 0
	if s.hasEmpty {
		n++
	}
	if s.hasTomb {
		n++
	}
	return n
}

// sentinelPositions is how many RangeFrom positions the sentinel entries
// take ahead of the slot array: one per sentinel key, present or not.
const sentinelPositions = 2

// rangeFrom is the sentinel entries' part of a RangeFrom walk from pos: it
// returns where the walk stands afterwards — in the slot array's positions
// unless fn stopped it — and whether fn has not stopped it.
func (s *sentinels) rangeFrom(pos int, fn func(key, val uint64) bool) (next int, more bool) {
	if pos <= 0 && s.hasEmpty && !fn(emptyKey, s.emptyVal) {
		return 1, false
	}
	if pos <= 1 && s.hasTomb && !fn(tombKey, s.tombVal) {
		return 2, false
	}
	return max(pos, sentinelPositions), true
}

// Config parameterizes table construction.
type Config struct {
	// InitialCapacity is the requested number of slots; it is rounded up
	// to a power of two, minimum 8. For Cuckoo it is the TOTAL capacity
	// across all subtables.
	InitialCapacity int
	// MaxLoadFactor, when positive, is the occupancy threshold at which
	// the table grows (doubling its capacity and rehashing). Zero disables
	// growth: the capacity is pre-allocated, as in the paper's WORM
	// experiments, and an insert that does not fit reports ErrFull.
	MaxLoadFactor float64
	// Family is the hash-function class to draw from. Defaults to Mult.
	Family hashfn.Family
	// Seed derives the hash-function parameters (and, for Cuckoo, each
	// generation of functions). Two tables built with the same Config are
	// identical.
	Seed uint64
}

// withDefaults normalizes a Config.
func (c Config) withDefaults() Config {
	if c.InitialCapacity < 8 {
		c.InitialCapacity = 8
	}
	c.InitialCapacity = 1 << uint(bits.Len(uint(c.InitialCapacity-1)))
	if c.Family == nil {
		c.Family = hashfn.MultFamily{}
	}
	if !(c.MaxLoadFactor >= 0 && c.MaxLoadFactor < 1) {
		c.MaxLoadFactor = 0
	}
	return c
}

// log2 returns log2(n) for a power-of-two n.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }

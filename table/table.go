// Package table implements the five hashing schemes studied in
// "A Seven-Dimensional Analysis of Hashing Methods and its Implications on
// Query Processing" (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015), §2:
//
//   - Chained8: classic chained hashing with an 8-byte (pointer-only)
//     directory and slab-allocated 24-byte entries.
//   - Chained24: chained hashing with a widened 24-byte directory slot that
//     inlines the first entry of every bucket.
//   - LinearProbing: open addressing with linear probing in array-of-structs
//     layout, optimized tombstone deletion.
//   - QuadraticProbing: triangular-number quadratic probing (c1 = c2 = 1/2
//     on power-of-two capacities, guaranteeing full-table coverage).
//   - RobinHood: the paper's tuned Robin Hood hashing on linear probing,
//     with displacement-ordered insertion, cache-line-granular early abort
//     for unsuccessful lookups, and partial-cluster-rehash deletion.
//   - Cuckoo: k-ary Cuckoo hashing (default k = 4, the paper's CuckooH4).
//
// plus LinearProbingSoA, the struct-of-arrays layout variant used by the
// paper's §7 layout and SIMD study, and DoubleHashing, an extension scheme
// expressed purely as a probe-sequence policy of the shared kernel.
//
// The open-addressing schemes are instantiations of one policy-driven
// probe kernel (kernel.go) over the paper's design dimensions made types
// (policy.go): probe sequence x slot layout x displacement policy, with
// the deletion strategy derived from them. Chained hashing and Cuckoo
// keep structurally different cores but share the sentinel routing and
// batch staging machinery.
//
// All tables store 64-bit integer keys and 64-bit values with map
// semantics (Put is an upsert). They are deliberately single-threaded,
// matching the paper's setting: for partition-based parallelism each
// partition is owned by one thread at a time and needs no internal
// synchronization.
//
// # Sentinel keys
//
// Open-addressing slots are 16-byte key/value pairs exactly like the
// paper's; slot emptiness is encoded in the key itself (empty = 0,
// tombstone = 2^64-1). The two real keys 0 and 2^64-1 are nevertheless
// fully supported: they are routed to two dedicated side fields, so the
// map domain is the complete uint64 space.
package table

import (
	"iter"
	"math/bits"

	"repro/hashfn"
)

// Map is the scalar point-operation interface of all hash tables in this
// package.
//
// Deprecated: Map is kept as a thin adapter for one release. New code
// should use Open / Handle (or the full Table interface), whose mutations
// surface ErrFull instead of the legacy behavior: Put and PutBatch on a
// full growth-disabled table absorb the condition by growing the table
// once rather than failing, so the pre-allocated-capacity contract of the
// paper's WORM experiments degrades gracefully instead of panicking.
type Map interface {
	// Put inserts or updates the mapping key -> val and reports whether the
	// key was newly inserted (false means an existing value was replaced).
	Put(key, val uint64) bool
	// Get returns the value stored under key and whether it is present.
	Get(key uint64) (uint64, bool)
	// Delete removes key and reports whether it was present.
	Delete(key uint64) bool
	// Len returns the number of live entries.
	Len() int
	// Capacity returns the number of slots (directory slots for chained
	// tables, total slots across subtables for Cuckoo).
	Capacity() int
	// LoadFactor returns Len()/Capacity(). For chained tables this can
	// exceed 1; see the paper's §4.5 for why load factor is interpreted as
	// a memory budget there.
	LoadFactor() float64
	// MemoryFootprint returns the total bytes of the directory plus, for
	// chained tables, the slab arena.
	MemoryFootprint() uint64
	// Range calls fn for every entry until fn returns false. Iteration
	// order is unspecified. The table must not be mutated during Range.
	Range(fn func(key, val uint64) bool)
	// Name returns the scheme name used in the paper ("LP", "QP", "RH",
	// "CuckooH4", "ChainedH8", "ChainedH24", ...).
	Name() string
}

// Table is the unified operation set implemented by every scheme in this
// package: the legacy scalar Map, the batched pipeline, the single-probe
// read-modify-write primitives, the error-based mutations, and Go 1.23
// iterators. Handle (see Open) wraps one or more Tables behind the
// workload-aware façade.
type Table interface {
	Map
	Batcher

	// TryPut is Put that reports ErrFull instead of growing when a
	// growth-disabled table is out of room.
	TryPut(key, val uint64) (inserted bool, err error)
	// GetOrPut returns the value stored under key if present (loaded
	// true); otherwise it inserts val and returns it (loaded false).
	// Exactly one probe sequence is issued either way — this is the
	// primitive that kills the Get-then-Put double probe in aggregation
	// and join builds.
	GetOrPut(key, val uint64) (actual uint64, loaded bool, err error)
	// Upsert applies fn to the value stored under key (exists true) or to
	// (0, false) when absent, stores the result, and returns it. Like
	// GetOrPut it issues exactly one probe sequence.
	Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error)
	// TryPutBatch is PutBatch with TryPut's error contract. On ErrFull it
	// stops and returns the number of keys newly inserted so far; pairs
	// before the failing one remain applied.
	TryPutBatch(keys, vals []uint64) (inserted int, err error)
	// GetOrPutBatch applies GetOrPut to every (keys[i], vals[i]) pair in
	// slice order: out[i] receives the resulting value and loaded[i]
	// whether the key already existed. out and loaded must be at least as
	// long as keys (out may alias vals), or both nil to drop the results. It
	// returns the number of newly inserted keys; on ErrFull it stops, with
	// earlier pairs applied.
	GetOrPutBatch(keys, vals, out []uint64, loaded []bool) (inserted int, err error)
	// UpsertBatch applies an Upsert to every key in slice order, passing
	// fn the key's lane index so callers can fold per-lane payloads in a
	// single probe per key. It returns the number of newly inserted keys.
	UpsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (inserted int, err error)
	// All returns a Go 1.23 range-over-func iterator over the entries,
	// equivalent to Range. The table must not be mutated during iteration.
	All() iter.Seq2[uint64, uint64]
	// RangeFrom is the resumable Range: it visits entries from position
	// pos until fn returns false (that entry is consumed) and returns the
	// position to resume from. A walk starts at 0 and is over when a call
	// returns without fn having returned false; resuming from each
	// returned position visits every entry exactly once. Positions are
	// opaque and hold only while the table is not mutated — which is what
	// makes an integer the whole migration cursor over shard.Engine's
	// frozen tables. The chained schemes resume per bucket: unlike Range,
	// they still hand fn the rest of the chain it returned false in.
	RangeFrom(pos int, fn func(key, val uint64) bool) (next int)
}

const (
	// emptyKey marks a free open-addressing slot.
	emptyKey uint64 = 0
	// tombKey marks a deleted open-addressing slot (tombstone).
	tombKey uint64 = ^uint64(0)
	// pairBytes is the size of one AoS slot: 8-byte key + 8-byte value.
	pairBytes = 16
	// slotsPerCacheLine is how many 16-byte AoS slots fit a 64-byte line;
	// Robin Hood's early-abort check fires once per cache line (§2.4).
	slotsPerCacheLine = 4
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

func (s *sentinels) put(key, val uint64) (inserted bool) {
	if key == emptyKey {
		inserted = !s.hasEmpty
		s.hasEmpty, s.emptyVal = true, val
		return inserted
	}
	inserted = !s.hasTomb
	s.hasTomb, s.tombVal = true, val
	return inserted
}

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
// Upsert and TryPut: with fn nil and overwrite false it is GetOrPut(val);
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
	// growth: the caller guarantees the table never fills, as in the
	// paper's WORM experiments where capacity is pre-allocated.
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
	if c.MaxLoadFactor < 0 || c.MaxLoadFactor >= 1 {
		c.MaxLoadFactor = 0
	}
	return c
}

// log2 returns log2(n) for a power-of-two n.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }

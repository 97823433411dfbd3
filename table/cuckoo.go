package table

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/hashfn"
	"repro/internal/prng"
)

// defaultCuckooWays is the number of subtables (and hash functions) used by
// newCuckoo: the paper's CuckooH4, the only traditional Cuckoo variant whose
// achievable load factor (~96.7%) covers the paper's sweep up to 90% (§2.5,
// §5.2).
const defaultCuckooWays = 4

// defaultMaxKicks bounds the displacement chain of one insertion before the
// table gives up and rehashes with freshly drawn hash functions.
const defaultMaxKicks = 500

// cuckoo is k-ary Cuckoo hashing (§2.5): k subtables T_0..T_{k-1}, each with
// its own hash function; every key resides in exactly one of its k candidate
// slots, so lookups probe at most k locations regardless of load factor.
// Inserts may trigger chains of displacements ("kicks"); a chain longer than
// maxKicks aborts into a full rehash with new hash functions, exactly as the
// paper describes. Cuckoo hashing is sensitive to weak hash functions during
// construction, but once built, its lookups are insensitive to both load
// factor and unsuccessful-probe ratio — the behaviour the paper observes at
// load factors >= 80%.
type cuckoo struct {
	slots    []pair // k contiguous subtables of subCap slots each
	ways     int
	subCap   uint64
	size     int
	fns      []hashfn.Function
	family   hashfn.Family
	seed     uint64
	gen      uint64 // function generation; bumped on every redraw
	maxLF    float64
	maxKicks int
	rng      prng.SplitMix64
	sent     sentinels

	rehashes   int
	totalKicks uint64
	// fixedWall memoizes the occupancy at which a growth-disabled insert
	// was last refused (0 = none): while set, further inserts
	// short-circuit to ErrFull instead of re-paying insertFixed's rebuild
	// attempts. Any mutation that could change feasibility — a delete, or
	// any rebuild — clears it.
	fixedWall int
	rmwSurface[*cuckoo]
}

// newCuckoo returns an empty 4-ary Cuckoo table configured by cfg.
func newCuckoo(cfg Config) *cuckoo { return newCuckooK(cfg, defaultCuckooWays) }

// newCuckooK returns an empty k-ary Cuckoo table, k in [2, 8]. Subtables
// need not have power-of-two capacity: candidate slots are derived with
// multiply-shift range reduction, so k = 3 (the paper's ~88%-load-factor
// variant) works too.
func newCuckooK(cfg Config, k int) *cuckoo {
	if k < 2 || k > 8 {
		panic(fmt.Sprintf("table: cuckoo ways must be in [2, 8]; got %d", k))
	}
	cfg = cfg.withDefaults()
	if cfg.InitialCapacity < 8*k {
		cfg.InitialCapacity = 8 * k
	}
	t := &cuckoo{
		ways:     k,
		family:   cfg.Family,
		seed:     cfg.Seed,
		maxLF:    cfg.MaxLoadFactor,
		maxKicks: defaultMaxKicks,
		rng:      *prng.NewSplitMix64(cfg.Seed ^ 0xc0c0c0c0c0c0c0c0),
	}
	t.self = t
	t.drawFunctions()
	t.init(cfg.InitialCapacity)
	return t
}

// drawFunctions draws the current generation of k hash functions.
func (t *cuckoo) drawFunctions() {
	t.fns = make([]hashfn.Function, t.ways)
	for j := range t.fns {
		t.fns[j] = t.family.New(prng.Mix(t.seed ^ (t.gen*uint64(t.ways) + uint64(j) + 1)))
	}
}

func (t *cuckoo) init(capacity int) {
	// Round the requested total down to a multiple of k so the flat array
	// splits into k equal subtables (for power-of-two k this is exact).
	sub := capacity / t.ways
	if sub < 2 {
		sub = 2
	}
	t.subCap = uint64(sub)
	t.slots = makeLarge[pair](sub * t.ways)
	t.size = 0
	t.fixedWall = 0
}

// pos returns the flat index of key's candidate slot in subtable j. The
// in-subtable index is derived with Lemire's multiply-shift reduction
// (high 64 bits of hash x subCap), which maps the full hash uniformly onto
// [0, subCap) for any subtable size — this is what lets k = 3 work — and
// for the multiplicative families weights exactly the high-quality top
// bits.
func (t *cuckoo) pos(j int, key uint64) int {
	hi, _ := bits.Mul64(t.fns[j].Hash(key), t.subCap)
	return j*int(t.subCap) + int(hi)
}

// Name implements Table.
func (t *cuckoo) Name() string { return fmt.Sprintf("CuckooH%d", t.ways) }

// HashName returns the hash-function family name.
func (t *cuckoo) HashName() string { return t.family.Name() }

// Ways returns the number of subtables k.
func (t *cuckoo) Ways() int { return t.ways }

// Len implements Table.
func (t *cuckoo) Len() int { return t.size + t.sent.len() }

// Capacity implements Table.
func (t *cuckoo) Capacity() int { return len(t.slots) }

// MemoryFootprint implements Table.
func (t *cuckoo) MemoryFootprint() uint64 {
	return uint64(len(t.slots)) * pairBytes
}

// Rehashes returns how many full rehashes (function redraws) construction
// has needed so far; the paper's construction-failure discussion (§2.5).
func (t *cuckoo) Rehashes() int { return t.rehashes }

// TotalKicks returns the total number of displacement steps performed by
// all inserts, the cost driver behind Cuckoo's slow writes (§5.2).
func (t *cuckoo) TotalKicks() uint64 { return t.totalKicks }

// Get implements Table: at most k probes, one per subtable.
func (t *cuckoo) Get(key uint64) (uint64, bool) {
	if isSentinelKey(key) {
		return t.sent.get(key)
	}
	for j := 0; j < t.ways; j++ {
		s := &t.slots[t.pos(j, key)]
		if s.key == key {
			return s.val, true
		}
	}
	return 0, false
}

// ProbeSlots invokes visit for each candidate slot a lookup of key
// examines, in way order, ending where Get ends (inclusive): at the slot
// holding key, or at the last way's — or earlier if visit returns false. A
// slot is numbered across the k subtables laid end to end. Sentinel-routed
// keys (0 and 2^64-1) touch no slots.
func (t *cuckoo) ProbeSlots(key uint64, visit func(slot int) bool) {
	if isSentinelKey(key) {
		return
	}
	for j := 0; j < t.ways; j++ {
		i := t.pos(j, key)
		if !visit(i) || t.slots[i].key == key {
			return
		}
	}
}

// hash is rmwSurface's per-key hash code: none, since Cuckoo derives its k
// candidate slots from its own per-subtable functions.
func (*cuckoo) hash(uint64) uint64 { return 0 }

// maxCuckooWays bounds k (newCuckooK), so one key's candidate slots fit a
// fixed array on the stack.
const maxCuckooWays = 8

// candidates is one key's k candidate slots, pos(0..k-1, key), as
// rmwHashed's lookup computed them: the insert that follows a miss reuses
// them instead of hashing the key k times again. They hold until a
// rebuild or a growth redraws the functions or resizes the table.
type candidates [maxCuckooWays]int

// rmwHashed is the single-probe read-modify-write primitive; see
// kern.rmwHashed. The precomputed hash is unused (see hash).
func (t *cuckoo) rmwHashed(key, val, _ uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool, error) {
	if isSentinelKey(key) {
		v, existed := t.sent.rmw(key, val, overwrite, fn)
		return v, existed, nil
	}
	var at candidates
	for j := 0; j < t.ways; j++ {
		at[j] = t.pos(j, key)
		s := &t.slots[at[j]]
		if s.key == key {
			if fn != nil {
				s.val = fn(s.val, true)
			} else if overwrite {
				s.val = val
			}
			return s.val, true, nil
		}
	}
	if fn == nil {
		// Value known upfront and no caller side effects: place directly.
		if err := t.placeFresh(pair{key, val}, &at); err != nil {
			return 0, false, err
		}
		return val, false, nil
	}
	// Upsert: the callback may have side effects (agg folds state through
	// it), so place a hole first and invoke fn only once the insert is
	// guaranteed, matching the other schemes' fn-after-room-check order.
	gen, n := t.gen, len(t.slots)
	if err := t.placeFresh(pair{key, 0}, &at); err != nil {
		return 0, false, err
	}
	v := fn(0, false)
	moved := t.gen != gen || len(t.slots) != n // a rebuild or a growth: at is stale
	for j := 0; j < t.ways; j++ {
		p := at[j]
		if moved {
			p = t.pos(j, key)
		}
		if s := &t.slots[p]; s.key == key {
			s.val = v
			break
		}
	}
	return v, false, nil
}

// placeFresh inserts an entry known to be absent, whose candidate slots
// are at, honouring the growth contract: with growth disabled the fixed
// pre-allocated capacity is hard — a key the capacity cannot place
// reports ErrFull instead of insertFresh's doubling fallback. After a
// refusal, further inserts short-circuit to ErrFull in O(1) until a delete
// frees a slot (which invalidates the memo), so a caller looping Put
// against a full table pays insertFixed's rebuild attempts once, not per
// key.
func (t *cuckoo) placeFresh(cur pair, at *candidates) error {
	if t.maxLF == 0 {
		if t.size >= len(t.slots) {
			return errFull(t.Name(), t.size, len(t.slots))
		}
		if t.fixedWall > 0 && !t.emptyCandidate(at) {
			// A prior insert was refused at this occupancy and this key
			// has no free candidate slot: refuse in O(k) rather than
			// re-paying the rebuild attempts. Keys with a free candidate
			// bypass the memo — they place in one sweep.
			return errFull(t.Name(), t.size, len(t.slots))
		}
		if !t.insertFixed(cur, at) {
			t.fixedWall = t.size
			return errFull(t.Name(), t.size, len(t.slots))
		}
		return nil
	}
	if t.maybeGrow() {
		at = nil // the doubled table moved every candidate
	}
	t.insertFresh(cur, at)
	return nil
}

// emptyCandidate reports whether any of a key's candidate slots at is
// free.
func (t *cuckoo) emptyCandidate(at *candidates) bool {
	for _, p := range at[:t.ways] {
		if t.slots[p].key == emptyKey {
			return true
		}
	}
	return false
}

// rebuildAttempts is how many function redraws a rebuild tries at one
// capacity before it gives up (insertFixed) or doubles (insertFresh).
const rebuildAttempts = 16

// insertFixed inserts an entry known to be absent WITHOUT ever growing:
// a failed kick chain redraws the hash functions and rebuilds at the same
// capacity a bounded number of times (the paper's construction-failure
// handling, minus the doubling last resort). When even that fails — the
// occupancy is past the scheme's feasibility threshold (~96.7% for k=4,
// §2.5) — it restores a table holding exactly the prior entries and
// reports false.
func (t *cuckoo) insertFixed(cur pair, at *candidates) bool {
	left, ok := t.kickInsert(cur, at)
	if ok {
		t.size++
		return true
	}
	entries := t.entries(left)
	if t.redraw(entries, len(t.slots), rebuildAttempts, false) {
		return true
	}
	// The new entry does not fit this capacity. Rebuild without it; the
	// prior configuration was feasible (it existed), so a function redraw
	// succeeds with overwhelming probability per attempt.
	prior := slices.DeleteFunc(entries, func(e pair) bool { return e.key == cur.key })
	t.redraw(prior, len(t.slots), 0, false)
	return false
}

// insertFresh inserts an entry known to be absent into a growing table.
// A kick chain that exceeds maxKicks redraws the functions and rebuilds
// with the homeless entry carried along, doubling the table as a last
// resort so that construction always terminates.
func (t *cuckoo) insertFresh(cur pair, at *candidates) {
	left, ok := t.kickInsert(cur, at)
	if ok {
		t.size++
		return
	}
	entries := t.entries(left)
	for c := len(t.slots); !t.redraw(entries, c, rebuildAttempts, false); {
		c *= 2
	}
}

// kickInsert runs the displacement loop for cur. On success it returns
// (zero, true); on failure it returns the entry left homeless and false.
// at, when not nil, holds cur's candidate slots, so the first round hashes
// nothing; every later round's cur is an evicted entry, hashed afresh.
func (t *cuckoo) kickInsert(cur pair, at *candidates) (pair, bool) {
	for kicks := 0; kicks <= t.maxKicks; kicks++ {
		// First give cur a chance at any empty candidate slot.
		for j := 0; j < t.ways; j++ {
			s := &t.slots[t.slot(j, cur.key, at)]
			if s.key == emptyKey {
				*s = cur
				return pair{}, true
			}
		}
		// All candidates occupied: evict from a randomly chosen subtable
		// (a random walk avoids the short cycles a fixed rotation can
		// fall into on k-ary tables).
		j := int(t.rng.Next() % uint64(t.ways))
		p := t.slot(j, cur.key, at)
		cur, t.slots[p] = t.slots[p], cur
		at = nil
		t.totalKicks++
	}
	return cur, false
}

// slot is key's candidate slot in subtable j: at[j] when the caller has
// them, else pos(j, key).
func (t *cuckoo) slot(j int, key uint64, at *candidates) int {
	if at != nil {
		return at[j]
	}
	return t.pos(j, key)
}

// entries collects the live slot entries followed by extra, for a rebuild.
func (t *cuckoo) entries(extra ...pair) []pair {
	out := make([]pair, 0, t.size+len(extra))
	for _, s := range t.slots {
		if s.key != emptyKey {
			out = append(out, s)
		}
	}
	return append(out, extra...)
}

// redraw is the one rebuild loop (§2.5's construction failure): it places
// entries into a fresh table of capacity slots, drawing the next generation
// of hash functions before every attempt — except the first when keep is
// set, which tries the current ones — and gives up after attempts failed
// builds (0: it tries until one succeeds).
func (t *cuckoo) redraw(entries []pair, capacity, attempts int, keep bool) bool {
attempt:
	for a := 0; attempts == 0 || a < attempts; a++ {
		if a > 0 || !keep {
			t.gen++
			t.rehashes++
			t.drawFunctions()
		}
		t.init(capacity)
		for _, e := range entries {
			if _, ok := t.kickInsert(e, nil); !ok {
				continue attempt
			}
		}
		t.size = len(entries)
		return true
	}
	return false
}

// Delete implements Table: Cuckoo needs no tombstones, slots are simply
// cleared.
func (t *cuckoo) Delete(key uint64) bool {
	if isSentinelKey(key) {
		return t.sent.delete(key)
	}
	for j := 0; j < t.ways; j++ {
		s := &t.slots[t.pos(j, key)]
		if s.key == key {
			*s = pair{}
			t.size--
			t.fixedWall = 0 // freed a slot: inserts may be feasible again
			return true
		}
	}
	return false
}

// maybeGrow doubles a growing table that one more entry would take past
// its load limit, and reports whether it did.
func (t *cuckoo) maybeGrow() bool {
	if t.maxLF == 0 || t.size+1 <= int(t.maxLF*float64(len(t.slots))) {
		return false
	}
	t.growTo(len(t.slots) * 2)
	return true
}

// growTo rebuilds the table at the given total capacity, with the current
// functions first and redrawn ones on construction failure.
func (t *cuckoo) growTo(capacity int) { t.redraw(t.entries(), capacity, 0, true) }

// RangeFrom implements Table: sentinel entries first, then slot i at
// position sentinelPositions+i, subtable after subtable.
func (t *cuckoo) RangeFrom(pos int, fn func(key, val uint64) bool) (next int) {
	pos, more := t.sent.rangeFrom(pos, fn)
	if !more {
		return pos
	}
	for i := pos - sentinelPositions; i < len(t.slots); i++ {
		if t.slots[i].key == emptyKey {
			continue
		}
		if !fn(t.slots[i].key, t.slots[i].val) {
			return i + 1 + sentinelPositions
		}
	}
	return len(t.slots) + sentinelPositions
}

// WayOccupancy returns the number of live entries per subtable (way), in
// probe order: it shows how the k functions spread the load, and it is
// what Stats derives Cuckoo's mean and max probe count from.
func (t *cuckoo) WayOccupancy() []int {
	occ := make([]int, t.ways)
	for i := range t.slots {
		if t.slots[i].key != emptyKey {
			occ[uint64(i)/t.subCap]++
		}
	}
	return occ
}

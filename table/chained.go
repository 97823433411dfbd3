package table

import (
	"repro/hashfn"
	"repro/internal/slab"
)

// chunkEntriesFor sizes slab chunks proportionally to the directory so that
// small tables do not pay a fixed multi-megabyte arena (which would wreck
// the §4.5 memory-budget comparison at small capacities) while large tables
// still allocate in big, cheap strides.
func chunkEntriesFor(dirSlots int) int {
	c := dirSlots / 8
	if c < 256 {
		c = 256
	}
	if c > slab.DefaultChunkEntries {
		c = slab.DefaultChunkEntries
	}
	return c
}

// chained8 is classic chained hashing (§2.1): the directory is an array of
// 8-byte pointers to linked lists of 24-byte entries. Entries are allocated
// from a slab allocator — the paper found malloc-per-insert costs up to an
// order of magnitude in insert throughput. Every lookup, even in a
// collision-free bucket, must follow one pointer, which is the structural
// disadvantage the widened chained24 variant removes.
type chained8 struct {
	dir    []*slab.Entry
	shift  uint
	size   int
	fn     hashfn.Function
	family hashfn.Family
	seed   uint64
	maxLF  float64
	grows  int
	alloc  *slab.Allocator
	rmwSurface[*chained8]
}

// newChained8 returns an empty pointer-directory chained table.
func newChained8(cfg Config) *chained8 {
	cfg = cfg.withDefaults()
	t := &chained8{
		family: cfg.Family,
		seed:   cfg.Seed,
		maxLF:  cfg.MaxLoadFactor,
		alloc:  slab.New(chunkEntriesFor(cfg.InitialCapacity)),
	}
	t.self = t
	t.fn = cfg.Family.New(cfg.Seed)
	t.dir = makeLarge[*slab.Entry](cfg.InitialCapacity)
	t.shift = 64 - log2(cfg.InitialCapacity)
	return t
}

func (t *chained8) hash(key uint64) uint64 { return t.fn.Hash(key) }
func (t *chained8) home(key uint64) uint64 { return t.fn.Hash(key) >> t.shift }

// Name implements Table.
func (t *chained8) Name() string { return "ChainedH8" }

// HashName returns the hash-function family name.
func (t *chained8) HashName() string { return t.fn.Name() }

// Rehashes returns the number of directory-doubling events, for Stats.
func (t *chained8) Rehashes() int { return t.grows }

// Len implements Table.
func (t *chained8) Len() int { return t.size }

// Capacity implements Table (directory slots). Len/Capacity, the load
// factor, may exceed 1 for chained tables (§4.5).
func (t *chained8) Capacity() int { return len(t.dir) }

// MemoryFootprint implements Table: 8 bytes per directory slot plus the
// slab arena holding the 24-byte entries.
func (t *chained8) MemoryFootprint() uint64 {
	return uint64(len(t.dir))*8 + t.alloc.FootprintBytes()
}

// Get implements Table.
func (t *chained8) Get(key uint64) (uint64, bool) {
	for e := t.dir[t.home(key)]; e != nil; e = e.Next {
		if e.Key == key {
			return e.Val, true
		}
	}
	return 0, false
}

// rmwHashed is the single-probe read-modify-write primitive behind every
// mutation, scalar and batched; see kern.rmwHashed. New entries are pushed
// at the head of their chain (order within a chain is immaterial; head
// insertion avoids walking the list twice), and chained tables never fill,
// so the error is always nil. The directory index is derived after
// maybeGrow so a doubled directory cannot stale it. chained8 has no
// sentinel keys: chain entries store full keys, so 0 and 2^64-1 are
// ordinary.
func (t *chained8) rmwHashed(key, val, hash uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool, error) {
	t.maybeGrow()
	i := hash >> t.shift
	for e := t.dir[i]; e != nil; e = e.Next {
		if e.Key == key {
			if fn != nil {
				e.Val = fn(e.Val, true)
			} else if overwrite {
				e.Val = val
			}
			return e.Val, true, nil
		}
	}
	v := val
	if fn != nil {
		v = fn(0, false)
	}
	e := t.alloc.Alloc()
	e.Key, e.Val = key, v
	e.Next = t.dir[i]
	t.dir[i] = e
	t.size++
	return v, false, nil
}

// Delete implements Table; the removed entry returns to the slab free list.
func (t *chained8) Delete(key uint64) bool {
	i := t.home(key)
	var prev *slab.Entry
	for e := t.dir[i]; e != nil; e = e.Next {
		if e.Key == key {
			if prev == nil {
				t.dir[i] = e.Next
			} else {
				prev.Next = e.Next
			}
			t.alloc.Free(e)
			t.size--
			return true
		}
		prev = e
	}
	return false
}

func (t *chained8) maybeGrow() {
	if t.maxLF == 0 {
		return
	}
	if t.size+1 <= int(t.maxLF*float64(len(t.dir))) {
		return
	}
	t.grows++
	// Double the directory and relink existing entries in place; no entry
	// is reallocated.
	old := t.dir
	t.dir = makeLarge[*slab.Entry](len(old) * 2)
	t.shift--
	for i := range old {
		e := old[i]
		for e != nil {
			next := e.Next
			j := t.home(e.Key)
			e.Next = t.dir[j]
			t.dir[j] = e
			e = next
		}
	}
}

// Range implements Table.
func (t *chained8) Range(fn func(key, val uint64) bool) {
	for i := range t.dir {
		for e := t.dir[i]; e != nil; e = e.Next {
			if !fn(e.Key, e.Val) {
				return
			}
		}
	}
}

// RangeFrom implements Table at bucket granularity: position i is
// directory slot i, and a bucket's chain is visited whole — unlike Range,
// fn is still handed the rest of the chain it returned false in, so that
// the bucket index alone resumes the walk.
func (t *chained8) RangeFrom(pos int, fn func(key, val uint64) bool) (next int) {
	for i := pos; i < len(t.dir); i++ {
		more := true
		for e := t.dir[i]; e != nil; e = e.Next {
			more = fn(e.Key, e.Val) && more
		}
		if !more {
			return i + 1
		}
	}
	return len(t.dir)
}

// ChainLengths returns the length of every non-empty chain; the paper's
// argument that chains under Mult average below length 2 is checkable here.
func (t *chained8) ChainLengths() []int {
	var out []int
	for i := range t.dir {
		n := 0
		for e := t.dir[i]; e != nil; e = e.Next {
			n++
		}
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Chained24
// ---------------------------------------------------------------------------

// bucket24 is chained24's widened directory slot: a full 24-byte
// key/value/pointer triplet, so the first entry of every bucket lives
// inline and collision-free lookups touch no linked list at all (§2.1).
//
// Invariants: if next != nil the inline entry is occupied; an unoccupied
// inline slot has key == emptyKey (real key 0 is kept in the sentinels).
type bucket24 struct {
	key  uint64
	val  uint64
	next *slab.Entry
}

// chained24 is the paper's widened-directory chained hash table: 24-byte
// directory slots inline the first entry, trading space for open-addressing
// latency whenever collisions are rare.
type chained24 struct {
	dir    []bucket24
	shift  uint
	size   int
	fn     hashfn.Function
	family hashfn.Family
	seed   uint64
	maxLF  float64
	alloc  *slab.Allocator

	grows int

	sent sentinels // real key 0, out of line like open addressing's; 2^64-1 is an ordinary key here
	rmwSurface[*chained24]
}

// newChained24 returns an empty inline-directory chained table.
func newChained24(cfg Config) *chained24 {
	cfg = cfg.withDefaults()
	t := &chained24{
		family: cfg.Family,
		seed:   cfg.Seed,
		maxLF:  cfg.MaxLoadFactor,
		alloc:  slab.New(chunkEntriesFor(cfg.InitialCapacity)),
	}
	t.self = t
	t.fn = cfg.Family.New(cfg.Seed)
	t.dir = makeLarge[bucket24](cfg.InitialCapacity)
	t.shift = 64 - log2(cfg.InitialCapacity)
	return t
}

func (t *chained24) hash(key uint64) uint64 { return t.fn.Hash(key) }
func (t *chained24) home(key uint64) uint64 { return t.fn.Hash(key) >> t.shift }

// Name implements Table.
func (t *chained24) Name() string { return "ChainedH24" }

// HashName returns the hash-function family name.
func (t *chained24) HashName() string { return t.fn.Name() }

// Rehashes returns the number of directory-doubling events, for Stats.
func (t *chained24) Rehashes() int { return t.grows }

// Len implements Table.
func (t *chained24) Len() int { return t.size + t.sent.len() }

// Capacity implements Table (directory slots).
func (t *chained24) Capacity() int { return len(t.dir) }

// MemoryFootprint implements Table: 24 bytes per directory slot plus the
// slab arena holding overflow entries.
func (t *chained24) MemoryFootprint() uint64 {
	return uint64(len(t.dir))*24 + t.alloc.FootprintBytes()
}

// Overflow returns the number of entries living in chains rather than
// inline: the "collisions" of the paper's Figure 3 footprint analysis.
func (t *chained24) Overflow() int { return t.alloc.Live() }

// inlineOccupied reports whether b's inline entry holds a live entry.
func inlineOccupied(b *bucket24) bool { return b.key != emptyKey || b.next != nil }

// Get implements Table.
func (t *chained24) Get(key uint64) (uint64, bool) {
	if key == emptyKey {
		return t.sent.get(key)
	}
	b := &t.dir[t.home(key)]
	if b.key == key {
		return b.val, true
	}
	for e := b.next; e != nil; e = e.Next {
		if e.Key == key {
			return e.Val, true
		}
	}
	return 0, false
}

// rmwHashed is the single-probe read-modify-write primitive behind every
// mutation, scalar and batched; see kern.rmwHashed. The inline slot is used
// first; collisions go to the slab-backed chain. Only real key 0 needs
// sentinel routing here.
func (t *chained24) rmwHashed(key, val, hash uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool, error) {
	if key == emptyKey {
		v, existed := t.sent.rmw(key, val, overwrite, fn)
		return v, existed, nil
	}
	t.maybeGrow()
	b := &t.dir[hash>>t.shift]
	if b.key == key {
		if fn != nil {
			b.val = fn(b.val, true)
		} else if overwrite {
			b.val = val
		}
		return b.val, true, nil
	}
	if inlineOccupied(b) {
		for e := b.next; e != nil; e = e.Next {
			if e.Key == key {
				if fn != nil {
					e.Val = fn(e.Val, true)
				} else if overwrite {
					e.Val = val
				}
				return e.Val, true, nil
			}
		}
	}
	v := val
	if fn != nil {
		v = fn(0, false)
	}
	if !inlineOccupied(b) {
		b.key, b.val = key, v
	} else {
		e := t.alloc.Alloc()
		e.Key, e.Val = key, v
		e.Next = b.next
		b.next = e
	}
	t.size++
	return v, false, nil
}

// Delete implements Table. Deleting the inline entry promotes the chain head
// into the directory so the invariant "chain non-empty => inline occupied"
// is preserved.
func (t *chained24) Delete(key uint64) bool {
	if key == emptyKey {
		return t.sent.delete(key)
	}
	b := &t.dir[t.home(key)]
	if b.key == key {
		if head := b.next; head != nil {
			b.key, b.val, b.next = head.Key, head.Val, head.Next
			t.alloc.Free(head)
		} else {
			b.key, b.val = emptyKey, 0
		}
		t.size--
		return true
	}
	var prev *slab.Entry
	for e := b.next; e != nil; e = e.Next {
		if e.Key == key {
			if prev == nil {
				b.next = e.Next
			} else {
				prev.Next = e.Next
			}
			t.alloc.Free(e)
			t.size--
			return true
		}
		prev = e
	}
	return false
}

func (t *chained24) maybeGrow() {
	if t.maxLF == 0 {
		return
	}
	if t.size+1 <= int(t.maxLF*float64(len(t.dir))) {
		return
	}
	t.grows++
	// Collect, reset the slab, rebuild with a doubled directory.
	entries := make([]pair, 0, t.size)
	for i := range t.dir {
		b := &t.dir[i]
		if inlineOccupied(b) {
			entries = append(entries, pair{b.key, b.val})
		}
		for e := b.next; e != nil; e = e.Next {
			entries = append(entries, pair{e.Key, e.Val})
		}
	}
	t.alloc.Reset()
	t.dir = makeLarge[bucket24](len(t.dir) * 2)
	t.shift--
	t.size = 0
	for _, p := range entries {
		b := &t.dir[t.home(p.key)]
		if !inlineOccupied(b) {
			b.key, b.val = p.key, p.val
		} else {
			e := t.alloc.Alloc()
			e.Key, e.Val = p.key, p.val
			e.Next = b.next
			b.next = e
		}
		t.size++
	}
}

// Range implements Table.
func (t *chained24) Range(fn func(key, val uint64) bool) {
	if _, more := t.sent.rangeFrom(0, fn); !more {
		return
	}
	for i := range t.dir {
		b := &t.dir[i]
		if inlineOccupied(b) && !fn(b.key, b.val) {
			return
		}
		for e := b.next; e != nil; e = e.Next {
			if !fn(e.Key, e.Val) {
				return
			}
		}
	}
}

// RangeFrom implements Table at bucket granularity like chained8's: the
// sentinel entries take the first sentinelPositions positions and bucket i
// follows at sentinelPositions+i, inline entry and chain visited whole.
func (t *chained24) RangeFrom(pos int, fn func(key, val uint64) bool) (next int) {
	pos, more := t.sent.rangeFrom(pos, fn)
	if !more {
		return pos
	}
	for i := pos - sentinelPositions; i < len(t.dir); i++ {
		b := &t.dir[i]
		more := true
		if inlineOccupied(b) {
			more = fn(b.key, b.val)
		}
		for e := b.next; e != nil; e = e.Next {
			more = fn(e.Key, e.Val) && more
		}
		if !more {
			return i + 1 + sentinelPositions
		}
	}
	return len(t.dir) + sentinelPositions
}

// ChainLengths returns, for every non-empty bucket, the number of entries
// in it (inline entry included).
func (t *chained24) ChainLengths() []int {
	var out []int
	for i := range t.dir {
		b := &t.dir[i]
		n := 0
		if inlineOccupied(b) {
			n++
		}
		for e := b.next; e != nil; e = e.Next {
			n++
		}
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

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

// chained is chained hashing (§2.1) in one of the paper's two directory
// layouts, chosen by its scheme; exactly one of heads and wide is non-nil.
//
//   - ChainedH8 (heads): the classic directory of 8-byte pointers to linked
//     lists of 24-byte entries. Every lookup, even in a collision-free
//     bucket, must follow one pointer, which is the structural
//     disadvantage the widened layout removes.
//   - ChainedH24 (wide): 24-byte directory slots, each a full
//     key/value/pointer triplet, so the first entry of every bucket lives
//     inline and collision-free lookups touch no linked list at all,
//     trading space for open-addressing latency whenever collisions are
//     rare.
//
// Chain entries are allocated from a slab allocator — the paper found
// malloc-per-insert costs up to an order of magnitude in insert
// throughput. Both layouts keep real key 0 in the sentinels, out of line
// like open addressing's, so an unoccupied inline entry (Key == emptyKey)
// matches no lookup; 2^64-1 is an ordinary key here. Invariant of the wide
// layout: if Next != nil the inline entry is occupied.
type chained struct {
	heads  []*slab.Entry
	wide   []slab.Entry
	scheme Scheme
	shift  uint
	size   int // entries in the directory and chains (key 0 excluded)
	fn     hashfn.Function
	maxLF  float64
	grows  int
	alloc  *slab.Allocator
	sent   sentinels
	rmwSurface[*chained]
}

// newChained returns an empty chained table with s's directory layout.
func newChained(s Scheme, cfg Config) *chained {
	cfg = cfg.withDefaults()
	t := &chained{
		scheme: s,
		maxLF:  cfg.MaxLoadFactor,
		alloc:  slab.New(chunkEntriesFor(cfg.InitialCapacity)),
	}
	t.self = t
	t.fn = cfg.Family.New(cfg.Seed)
	t.makeDir(cfg.InitialCapacity)
	t.shift = 64 - log2(cfg.InitialCapacity)
	return t
}

// makeDir allocates an empty directory of n slots in the scheme's layout.
func (t *chained) makeDir(n int) {
	if t.scheme == SchemeChained8 {
		t.heads = makeLarge[*slab.Entry](n)
	} else {
		t.wide = makeLarge[slab.Entry](n)
	}
}

func (t *chained) hash(key uint64) uint64 { return t.fn.Hash(key) }
func (t *chained) home(key uint64) uint64 { return t.fn.Hash(key) >> t.shift }

// first returns bucket i's first live entry, or nil for an empty bucket.
func (t *chained) first(i uint64) *slab.Entry {
	if t.heads != nil {
		return t.heads[i]
	}
	if e := &t.wide[i]; e.Key != emptyKey {
		return e
	}
	return nil
}

// link inserts key/val into bucket i: into its inline entry when the wide
// layout has that free, otherwise pushed at the head of its chain (order
// within a chain is immaterial; head insertion avoids walking the list
// twice).
func (t *chained) link(i, key, val uint64) {
	var head **slab.Entry
	if t.heads != nil {
		head = &t.heads[i]
	} else {
		b := &t.wide[i]
		if b.Key == emptyKey {
			b.Key, b.Val = key, val
			return
		}
		head = &b.Next
	}
	e := t.alloc.Alloc()
	e.Key, e.Val, e.Next = key, val, *head
	*head = e
}

// Name implements Table.
func (t *chained) Name() string { return string(t.scheme) }

// HashName returns the hash-function family name.
func (t *chained) HashName() string { return t.fn.Name() }

// Rehashes returns the number of directory-doubling events, for Stats.
func (t *chained) Rehashes() int { return t.grows }

// Len implements Table.
func (t *chained) Len() int { return t.size + t.sent.len() }

// Capacity implements Table (directory slots). Len/Capacity, the load
// factor, may exceed 1 for chained tables (§4.5).
func (t *chained) Capacity() int { return len(t.heads) + len(t.wide) }

// MemoryFootprint implements Table: 8 or 24 bytes per directory slot plus
// the slab arena holding the chained entries.
func (t *chained) MemoryFootprint() uint64 {
	return uint64(len(t.heads))*8 + uint64(len(t.wide))*24 + t.alloc.FootprintBytes()
}

// Overflow returns the number of entries living in chains rather than
// inline: the "collisions" of the paper's Figure 3 footprint analysis.
// Nothing is inline in the pointer layout.
func (t *chained) Overflow() int { return t.alloc.Live() }

// Get implements Table.
func (t *chained) Get(key uint64) (uint64, bool) {
	if key == emptyKey {
		return t.sent.get(key)
	}
	for e := t.first(t.home(key)); e != nil; e = e.Next {
		if e.Key == key {
			return e.Val, true
		}
	}
	return 0, false
}

// ProbeSlots invokes visit for every position a lookup of key examines, in
// walk order, ending where Get's walk ends (inclusive): at the entry
// holding key or at the last entry of its chain — or earlier if visit
// returns false. The first position is the key's directory slot
// (ChainedH24's inline entry, ChainedH8's head pointer); the chain entry
// d links past it is numbered slot + d·Capacity(), so positions at or past
// Capacity() lie off the directory, and a key's trace stays the same while
// its chain does. Key 0 touches no position.
func (t *chained) ProbeSlots(key uint64, visit func(slot int) bool) {
	if key == emptyKey {
		return
	}
	i, n := t.home(key), uint64(t.Capacity())
	if !visit(int(i)) {
		return
	}
	e := t.first(i)
	if t.wide != nil { // the directory slot holds the first entry
		if e == nil || e.Key == key {
			return
		}
		e = e.Next
	}
	for d := uint64(1); e != nil; e, d = e.Next, d+1 {
		if !visit(int(i+d*n)) || e.Key == key {
			return
		}
	}
}

// rmwHashed is the single-probe read-modify-write primitive behind every
// mutation, scalar and batched; see kern.rmwHashed. Chained tables never
// fill, so the error is always nil. The directory index is derived after
// maybeGrow so a doubled directory cannot stale it.
func (t *chained) rmwHashed(key, val, hash uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool, error) {
	if key == emptyKey {
		v, existed := t.sent.rmw(key, val, overwrite, fn)
		return v, existed, nil
	}
	t.maybeGrow()
	i := hash >> t.shift
	for e := t.first(i); e != nil; e = e.Next {
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
	t.link(i, key, v)
	t.size++
	return v, false, nil
}

// Delete implements Table; the removed entry returns to the slab free list.
// Deleting a wide bucket's inline entry promotes the chain head into the
// directory so the invariant "chain non-empty => inline occupied" is
// preserved.
func (t *chained) Delete(key uint64) bool {
	if key == emptyKey {
		return t.sent.delete(key)
	}
	i := t.home(key)
	var link **slab.Entry
	if t.heads != nil {
		link = &t.heads[i]
	} else {
		b := &t.wide[i]
		if b.Key == key {
			if head := b.Next; head != nil {
				*b = *head
				t.alloc.Free(head)
			} else {
				b.Key, b.Val = emptyKey, 0
			}
			t.size--
			return true
		}
		link = &b.Next
	}
	for e := *link; e != nil; link, e = &e.Next, e.Next {
		if e.Key == key {
			*link = e.Next
			t.alloc.Free(e)
			t.size--
			return true
		}
	}
	return false
}

func (t *chained) maybeGrow() {
	if t.maxLF == 0 {
		return
	}
	n := t.Capacity()
	if t.size+1 <= int(t.maxLF*float64(n)) {
		return
	}
	t.grows++
	// Collect, reset the slab, rebuild with a doubled directory.
	entries := make([]pair, 0, t.size)
	for i := range n {
		for e := t.first(uint64(i)); e != nil; e = e.Next {
			entries = append(entries, pair{e.Key, e.Val})
		}
	}
	t.alloc.Reset()
	t.makeDir(2 * n)
	t.shift--
	for _, p := range entries {
		t.link(t.home(p.key), p.key, p.val)
	}
}

// RangeFrom implements Table at bucket granularity: the sentinel entries
// take the first sentinelPositions positions and bucket i follows at
// sentinelPositions+i. A bucket is visited whole — fn is still handed the
// rest of the bucket it returned false in, so that the bucket index alone
// resumes the walk.
func (t *chained) RangeFrom(pos int, fn func(key, val uint64) bool) (next int) {
	pos, more := t.sent.rangeFrom(pos, fn)
	if !more {
		return pos
	}
	n := t.Capacity()
	for i := pos - sentinelPositions; i < n; i++ {
		more := true
		for e := t.first(uint64(i)); e != nil; e = e.Next {
			more = fn(e.Key, e.Val) && more
		}
		if !more {
			return i + 1 + sentinelPositions
		}
	}
	return n + sentinelPositions
}

// ChainLengths returns, for every non-empty bucket, the number of entries
// in it (a wide bucket's inline entry included); the paper's argument that
// chains under Mult average below length 2 is checkable here.
func (t *chained) ChainLengths() []int {
	var out []int
	for i := range t.Capacity() {
		n := 0
		for e := t.first(uint64(i)); e != nil; e = e.Next {
			n++
		}
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

// Batched pipeline. Chained probing is a linked walk — the dependent-load
// chain the paper charges chained hashing with — so the round-robin rounds
// interleave *different* buckets' chain steps: each round dereferences one
// Next per live lane, and those loads are independent of each other. The
// chained core keeps its own copy of that walk: behind a shared call (as
// with the kernel's walks, see kern.getChunk) it measured about a quarter
// slower per key on a cache-resident table.

// GetBatch implements Table. In the wide layout the first-probe pass
// resolves against the inline entries — the collision-free case ChainedH24
// exists for — and only overflow chains enter the round-robin walk.
func (t *chained) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return getBatchImpl(t, keys, vals, ok)
}

func (t *chained) getChunk(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	hashfn.HashBatch(t.fn, keys, bt.hash[:])
	shift := t.shift
	hits := 0
	var cur [BatchWidth]*slab.Entry
	live := bt.lane[:0]
	// The first-probe pass, one loop per layout so the choice is made once
	// per chunk rather than once per lane.
	if heads := t.heads; heads != nil {
		for l, k := range keys {
			if k == emptyKey {
				vals[l], ok[l] = t.sent.get(k)
				if ok[l] {
					hits++
				}
				continue
			}
			e := heads[bt.hash[l]>>shift]
			if e == nil {
				vals[l], ok[l] = 0, false
				continue
			}
			cur[l] = e
			live = append(live, int32(l))
		}
	} else {
		wide := t.wide
		for l, k := range keys {
			if k == emptyKey {
				vals[l], ok[l] = t.sent.get(k)
				if ok[l] {
					hits++
				}
				continue
			}
			b := &wide[bt.hash[l]>>shift]
			if b.Key == k {
				vals[l], ok[l] = b.Val, true
				hits++
				continue
			}
			if b.Next == nil {
				vals[l], ok[l] = 0, false
				continue
			}
			cur[l] = b.Next
			live = append(live, int32(l))
		}
	}
	for len(live) > 0 {
		w := 0
		for _, l := range live {
			e := cur[l]
			if e.Key == keys[l] {
				vals[l], ok[l] = e.Val, true
				hits++
				continue
			}
			if e.Next == nil {
				vals[l], ok[l] = 0, false
				continue
			}
			cur[l] = e.Next
			live[w] = l
			w++
		}
		live = live[:w]
	}
	return hits
}

// openChunk opens a chunk for the batch mutations the way kern.hashAndTouch
// does for the probe kernel: the keys (at most BatchWidth) are bulk-hashed
// into the chunk scratch and every lane's directory word — a head pointer,
// or an inline key — loaded back to back, so the chunk's directory misses
// are in flight together before the first lane is applied. A hint only:
// rmwHashed indexes the directory itself, after maybeGrow, so a doubling
// in mid-chunk merely wastes the remaining touches. The chained lookups
// (getChunk) take no touch pass — their first-probe loop already issues
// the directory loads back to back, and a pass ahead of it measured no
// faster.
func (t *chained) openChunk(bt *batchBuf, keys []uint64) {
	hashfn.HashBatch(t.fn, keys, bt.hash[:])
	heads, wide, shift := t.heads, t.wide, t.shift&63
	var sink uint64
	if heads != nil {
		for _, h := range bt.hash[:len(keys)] {
			if heads[h>>shift] != nil {
				sink++
			}
		}
	} else {
		for _, h := range bt.hash[:len(keys)] {
			sink += wide[h>>shift].Key
		}
	}
	bt.sink = sink
}

// Package slab implements the bulk entry allocator the paper's chained
// hash tables rely on (§2.1).
//
// A naive chained hash table performs one malloc per insert and one free per
// delete; the paper reports that replacing this with a slab allocator —
// bulk-allocating entries in large arrays and handing them out sequentially
// — improved insert performance by up to an order of magnitude and reduced
// the memory footprint (less fragmentation, no per-allocation metadata).
//
// This package is the Go rendering of that allocator: entries are allocated
// in fixed-size chunks ([]Entry arrays), handed out sequentially, and
// recycled through an intrusive free list threaded over the Next pointer.
// Allocating from a chunk is a bump of an index; the garbage collector never
// sees per-entry allocations.
//
// A chunk holds at most DefaultChunkEntries entries, 1.5 MiB, which is too
// small to contain an aligned 2 MiB page. So the huge-page advice package
// table gives its slot arrays and directories never reaches a chunk, and a
// chained table's overflow entries stay on 4 KiB pages.
package slab

// Entry is a chained hash table entry: a key-value pair plus the chain
// pointer. With 8-byte key, 8-byte value and 8-byte pointer it occupies the
// paper's 24 bytes.
type Entry struct {
	Key  uint64
	Val  uint64
	Next *Entry
}

// EntrySize is the in-memory size of one Entry in bytes.
const EntrySize = 24

// DefaultChunkEntries is the default number of entries per chunk (64 Ki
// entries = 1.5 MiB per chunk).
const DefaultChunkEntries = 1 << 16

// Allocator hands out Entry values from bulk-allocated chunks.
//
// The zero value is NOT ready to use; call New. An Allocator is not safe
// for concurrent use, matching the paper's single-threaded setting.
type Allocator struct {
	chunks       [][]Entry
	cursor       int // next unused index in the last chunk
	free         *Entry
	chunkEntries int
	liveCount    int // entries handed out and not yet freed
	freeCount    int // entries on the free list
}

// New returns an Allocator that allocates chunkEntries entries per chunk.
// If chunkEntries <= 0, DefaultChunkEntries is used.
func New(chunkEntries int) *Allocator {
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	return &Allocator{chunkEntries: chunkEntries}
}

// NewWithCapacity returns an Allocator pre-sized so that the first n
// allocations come from a single chunk. This is the paper's "size known in
// advance" fast path for WORM builds.
func NewWithCapacity(n int) *Allocator {
	if n <= 0 {
		n = 1
	}
	a := &Allocator{chunkEntries: n}
	a.chunks = append(a.chunks, make([]Entry, n))
	return a
}

// Alloc returns a zeroed entry. Freed entries are recycled before new chunk
// space is used.
func (a *Allocator) Alloc() *Entry {
	a.liveCount++
	if e := a.free; e != nil {
		a.free = e.Next
		a.freeCount--
		*e = Entry{}
		return e
	}
	if len(a.chunks) == 0 || a.cursor == len(a.chunks[len(a.chunks)-1]) {
		a.chunks = append(a.chunks, make([]Entry, a.chunkEntries))
		a.cursor = 0
	}
	c := a.chunks[len(a.chunks)-1]
	e := &c[a.cursor]
	a.cursor++
	return e
}

// Free returns an entry to the allocator for reuse. The entry must have been
// obtained from Alloc on this allocator and must not be used after Free.
func (a *Allocator) Free(e *Entry) {
	e.Next = a.free
	e.Key = 0
	e.Val = 0
	a.free = e
	a.freeCount++
	a.liveCount--
}

// Reset discards all entries while keeping the allocated chunks for reuse.
// All outstanding entries become invalid.
func (a *Allocator) Reset() {
	a.free = nil
	a.freeCount = 0
	a.liveCount = 0
	if len(a.chunks) > 0 {
		// Keep only the first chunk to bound retained memory, but reuse it.
		a.chunks = a.chunks[:1]
	}
	a.cursor = 0
}

// Live returns the number of entries currently handed out.
func (a *Allocator) Live() int { return a.liveCount }

// FootprintBytes returns the total bytes held by the allocator's chunks.
// This is the slab contribution to a chained table's memory footprint.
func (a *Allocator) FootprintBytes() uint64 {
	var total uint64
	for _, c := range a.chunks {
		total += uint64(len(c)) * EntrySize
	}
	return total
}

// Chunks returns the number of chunks allocated so far (for tests and
// diagnostics).
func (a *Allocator) Chunks() int { return len(a.chunks) }

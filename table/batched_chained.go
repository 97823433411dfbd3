package table

import (
	"repro/hashfn"
	"repro/internal/slab"
)

// Batched pipeline for the chained schemes. Chained probing is a linked
// walk — the dependent-load chain the paper charges chained hashing with —
// so the round-robin rounds interleave *different* buckets' chain steps:
// each round dereferences one Next per live lane, and those loads are
// independent of each other.

// GetBatch implements Table.
func (t *chained8) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return getBatchImpl(t, keys, vals, ok)
}

func (t *chained8) getChunk(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	hashfn.HashBatch(t.fn, keys, bt.hash[:])
	shift := t.shift
	hits := 0
	var cur [BatchWidth]*slab.Entry
	live := bt.lane[:0]
	for l := range keys {
		e := t.dir[bt.hash[l]>>shift]
		if e == nil {
			vals[l], ok[l] = 0, false
			continue
		}
		cur[l] = e
		live = append(live, int32(l))
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
// into the chunk scratch and every lane's directory word loaded back to
// back, so the chunk's directory misses are in flight together before the
// first lane is applied. A hint only: rmwHashed indexes the directory
// itself, after maybeGrow, so a doubling in mid-chunk merely wastes the
// remaining touches. The chained lookups (getChunk) take no touch pass —
// their first-probe loop already issues the directory loads back to back,
// and a pass ahead of it measured no faster.
func (t *chained8) openChunk(bt *batchBuf, keys []uint64) {
	hashfn.HashBatch(t.fn, keys, bt.hash[:])
	dir, shift := t.dir, t.shift
	var sink uint64
	for _, h := range bt.hash[:len(keys)] {
		if dir[h>>(shift&63)] != nil {
			sink++
		}
	}
	bt.sink = sink
}

// GetBatch implements Table. The first-probe pass resolves against the
// widened directory's inline entries — the collision-free case Chained24
// exists for — and only overflow chains enter the round-robin walk.
func (t *chained24) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return getBatchImpl(t, keys, vals, ok)
}

func (t *chained24) getChunk(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	hashfn.HashBatch(t.fn, keys, bt.hash[:])
	shift := t.shift
	hits := 0
	var cur [BatchWidth]*slab.Entry
	live := bt.lane[:0]
	for l := range keys {
		k := keys[l]
		if k == emptyKey {
			vals[l], ok[l] = t.zeroVal, t.hasZero
			if ok[l] {
				hits++
			}
			continue
		}
		b := &t.dir[bt.hash[l]>>shift]
		if b.key == k {
			vals[l], ok[l] = b.val, true
			hits++
			continue
		}
		if b.next == nil {
			vals[l], ok[l] = 0, false
			continue
		}
		cur[l] = b.next
		live = append(live, int32(l))
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

// openChunk is chained8.openChunk on the widened directory: the word
// loaded is each lane's inline key.
func (t *chained24) openChunk(bt *batchBuf, keys []uint64) {
	hashfn.HashBatch(t.fn, keys, bt.hash[:])
	dir, shift := t.dir, t.shift
	var sink uint64
	for _, h := range bt.hash[:len(keys)] {
		sink += dir[h>>(shift&63)].key
	}
	bt.sink = sink
}

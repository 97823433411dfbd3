package table

import (
	"math/bits"

	"repro/hashfn"
)

// Batched pipeline for Cuckoo hashing. Cuckoo lookups are the natural fit
// for way-major batching: every key has at most `ways` candidate slots, so
// the pipeline probes subtable 0 for the whole chunk, drops the resolved
// lanes, and moves the survivors to subtable 1, and so on. Each way's pass
// is one bulk hash, one touch pass that loads every survivor's candidate
// slot back to back (touchWay; the same idea as kern.hashAndTouch), and one
// compare pass over lines that are arriving —
// per-call hash overhead is paid ways times per *chunk* instead of ways
// times per key, and a miss is paid per way, not per key.
//
// Only the way being probed is touched. Touching all k ways up front
// fetches k lines per key where a mostly-hit tape needs far fewer (2.6 of
// 4 at 75% hits), and the path is bound by line throughput.

// GetBatch implements Table.
func (t *cuckoo) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return getBatchImpl(t, keys, vals, ok)
}

func (t *cuckoo) getChunk(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	hits := 0
	live := bt.lane[:0]
	for l := range keys {
		k := keys[l]
		if isSentinelKey(k) {
			vals[l], ok[l] = t.sent.get(k)
			if ok[l] {
				hits++
			}
			continue
		}
		live = append(live, int32(l))
	}
	slots := t.slots
	for j := 0; j < t.ways && len(live) > 0; j++ {
		// Gather the unresolved keys, bulk-hash them with subtable j's
		// function, and touch their candidate slots.
		n := len(live)
		for i, l := range live {
			bt.a[i] = keys[l]
		}
		hashfn.HashBatch(t.fns[j], bt.a[:n], bt.hash[:])
		t.touchWay(bt, j, n)
		w := 0
		for i, l := range live {
			s := &slots[bt.b[i]]
			if s.key == bt.a[i] {
				vals[l], ok[l] = s.val, true
				hits++
				continue
			}
			live[w] = l
			w++
		}
		live = live[:w]
	}
	// Lanes that survived all ways miss: a Cuckoo key is always in one of
	// its candidate slots.
	missLive(live, vals, ok)
	return hits
}

// touchWay is one way's touch pass: it turns the first n hash codes of the
// chunk scratch (hashed with fns[j]) into flat slot positions, kept in
// bt.b, and loads every one of those slots' key words back to back, so the
// way's cache misses are in flight together before any lane is compared.
func (t *cuckoo) touchWay(bt *batchBuf, j, n int) {
	slots, subCap := t.slots, t.subCap
	base := uint64(j) * subCap
	var sink uint64
	for i, h := range bt.hash[:n] {
		hi, _ := bits.Mul64(h, subCap)
		bt.b[i] = base + hi
		sink += slots[base+hi].key
	}
	bt.sink = sink
}

// openChunk opens a chunk for the batch mutations: the keys (at most
// BatchWidth) are bulk-hashed with each of the k functions and all k
// candidate slots of every lane touched — an insert has to inspect all k
// anyway, so nothing is over-fetched. The touch is a hint only: lanes
// apply through the scalar paths, which derive their own positions, so a
// function redraw or a growth in mid-chunk merely wastes the remaining
// touches.
func (t *cuckoo) openChunk(bt *batchBuf, keys []uint64) {
	for j, fn := range t.fns {
		hashfn.HashBatch(fn, keys, bt.hash[:])
		t.touchWay(bt, j, len(keys))
	}
}

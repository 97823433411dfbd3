package table

import (
	"math/bits"
	"sync"

	"repro/hashfn"
)

// Batched pipeline for Cuckoo hashing. Cuckoo lookups are the natural fit
// for way-major batching: every key has at most `ways` candidate slots, so
// GetBatch probes subtable 0 for the whole chunk, keeps the lanes that
// missed, moves them to subtable 1, and so on. Each way's pass is one bulk
// hash, one touch pass that loads every survivor's candidate slot back to
// back (touchWay; the same idea as kern.hashAndTouch), and one compare
// pass over lines that are arriving — per-call hash overhead is paid ways
// times per *chunk* instead of ways times per key, and a miss is paid per
// way, not per key.
//
// The compare pass has no hit branch (the branch-free probe of Ross,
// "Efficient Hash Probes on Modern Processors", ICDE 2007). The touch pass
// has already fetched the one slot a lane compares, so what was left to
// stall on is the data-dependent hit branch, which mispredicts on about
// half the lanes of every way. Every probed lane takes its slot's value
// and ok = (slot key == probe); the lanes that missed are compacted for
// the next way by a conditional move, and the way's hits are the lanes
// the compaction dropped. A lane that misses every way is left holding
// its last slot's value, so the walk ends with missLive, which zeroes it.
//
// GetBatch's chunks are cuckooChunk lanes wide, four times BatchWidth: a
// way's touch pass then puts more lines in flight at once, and the loop
// set-up of each pass is paid per 256 keys. The kernel and the chained
// core stay at BatchWidth, where wider chunks measured no better.
//
// Only the way being probed is touched. Touching all k ways up front
// fetches k lines per key where a mostly-hit tape needs far fewer (2.6 of
// 4 at 75% hits).

// cuckooChunk is the lane count of a Cuckoo GetBatch chunk.
const cuckooChunk = 256

// cuckooReadBuf is one Cuckoo GetBatch chunk's scratch.
type cuckooReadBuf struct {
	key  [cuckooChunk]uint64 // the live lanes' keys, gathered for the way's bulk hash
	hash [cuckooChunk]uint64 // their hash codes under the way's function
	pos  [cuckooChunk]uint64 // their candidate slots' flat positions
	lane [cuckooChunk]int32  // the live lanes
	sink uint64              // where the touch passes fold their loads (never read)
}

// cuckooReadBufs lends a Cuckoo GetBatch call its chunk scratch, as
// readBufs does for the other cores.
var cuckooReadBufs = sync.Pool{New: func() any { return new(cuckooReadBuf) }}

// GetBatch implements Table: the keys go through getChunk cuckooChunk at a
// time, on scratch that is the call's own. It writes no table state, so
// concurrent calls on one table are safe, and a lane stops after the k
// ways whatever the slots hold.
func (t *cuckoo) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	checkBatchGet(len(keys), len(vals), len(ok))
	bt := cuckooReadBufs.Get().(*cuckooReadBuf)
	hits := 0
	for lo := 0; lo < len(keys); lo += cuckooChunk {
		hi := min(lo+cuckooChunk, len(keys))
		hits += t.getChunk(bt, keys[lo:hi], vals[lo:hi], ok[lo:hi])
	}
	cuckooReadBufs.Put(bt)
	return hits
}

func (t *cuckoo) getChunk(bt *cuckooReadBuf, keys, vals []uint64, ok []bool) int {
	hits := 0
	live := bt.lane[:0]
	for l, k := range keys {
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
		probe, pos := bt.key[:n], bt.pos[:n]
		for i, l := range live {
			probe[i] = keys[l]
		}
		hashfn.HashBatch(t.fns[j], probe, bt.hash[:n])
		bt.sink += t.touchWay(j, bt.hash[:n], pos)
		live = compareWay(slots, probe, pos, live, vals, ok)
		hits += n - len(live)
	}
	// Lanes that survived all ways miss: a Cuckoo key is always in one of
	// its candidate slots.
	missLive(live, vals, ok)
	return hits
}

// compareWay is one way's compare pass, with no hit branch: lane live[i]
// takes slot pos[i]'s value and ok = (its key == probe[i]), and is written
// back to live at the miss count so far, which only a miss advances (the
// compiler makes that a conditional move). It returns the lanes that
// missed, compacted in place; the rest hit. The reslices below let the
// compiler drop the bounds checks on probe, pos and ok.
func compareWay(slots []pair, probe, pos []uint64, live []int32, vals []uint64, ok []bool) []int32 {
	probe, pos, ok = probe[:len(live)], pos[:len(live)], ok[:len(vals)]
	w := 0
	for i, l := range live {
		s := &slots[pos[i]]
		hit := s.key == probe[i]
		vals[l], ok[l] = s.val, hit
		live[w] = l
		if !hit {
			w++
		}
	}
	return live[:w]
}

// touchWay is one way's touch pass: it turns hash codes made with fns[j]
// into flat slot positions in subtable j, written to pos, and loads every
// one of those slots' key words back to back, so the way's cache misses
// are in flight together before any lane is compared. It returns the
// loads' sum, for the caller to fold into a sink; else they are dead code.
func (t *cuckoo) touchWay(j int, hash, pos []uint64) uint64 {
	slots, subCap := t.slots, t.subCap
	base := uint64(j) * subCap
	pos = pos[:len(hash)]
	var sink uint64
	for i, h := range hash {
		hi, _ := bits.Mul64(h, subCap)
		pos[i] = base + hi
		sink += slots[base+hi].key
	}
	return sink
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
		bt.sink += t.touchWay(j, bt.hash[:len(keys)], bt.b[:])
	}
}

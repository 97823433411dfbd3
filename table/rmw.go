package table

// This file wires the single-probe read-modify-write primitive (rmwHashed)
// of the two structurally distinct cores — chained hashing and Cuckoo —
// into the Table surface: RMW and its batched form, RMWBatch. The five
// open-addressing schemes get the same surface from the probe kernel,
// batch driver (kern.RMWBatch) included.
//
// The surface is one generic type, rmwSurface, embedded in both cores
// (one chained core serves ChainedH8 and ChainedH24). Its batched form
// is one driver, rmwSurface.RMWBatch: each chunk is opened by the scheme's
// openChunk — bulk-hash, then load back to back every line the scalar
// step is going to read first (the head pointer or inline key of a
// chained lane, all k candidate slots of a Cuckoo lane) —
// and then applied lane by lane through the scheme's rmwHashed. Unlike a
// Get-then-Put sequence they issue exactly ONE probe sequence per key —
// the probe that finds the key doubles as the probe that finds its
// insertion point — which is what removes the double walk from
// aggregation builds and join builds. Batched semantics are sequential
// semantics: pairs apply in slice order, so a duplicate key later in the
// batch observes the effect of its earlier occurrence.
//
// RMW's callbacks must not touch the table they are invoked from; they
// run mid-probe.

// rmwTable is the internal hook the generic surface needs: the scheme's
// chunk buffer, its chunk opening (which leaves the lanes' hash codes in
// bt.hash for the schemes whose rmwHashed takes one), the hash code its
// rmwHashed takes for one key, and the single-probe RMW primitive.
type rmwTable interface {
	buf() *batchBuf
	openChunk(bt *batchBuf, keys []uint64)
	hash(key uint64) uint64
	rmwHashed(key, val, hash uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool, error)
}

// rmwSurface is the mutating half of the Table surface for a core with its
// own rmwHashed: embedded in the core T (in place of a bare batchState) with
// self pointing back at it, it runs T's RMW primitive for RMW and, over
// T's chunk opening, for RMWBatch.
type rmwSurface[T rmwTable] struct {
	batchState
	self T
}

// RMW implements Table.
func (s *rmwSurface[T]) RMW(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	return s.self.rmwHashed(key, val, s.self.hash(key), overwrite, fn)
}

// RMWBatch implements Table: the one chunk loop of both cores, one probe
// per key, results in slice order. vals nil stores fn's results,
// out/loaded nil drops the lanes' results, and fn is passed the lane it is
// called for. It stops at the first failing key, leaving earlier pairs
// applied. A call with fn allocates its lane and its adapter to rmwHashed
// once (not per key); a call without allocates neither.
func (s *rmwSurface[T]) RMWBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	checkRMWBatch(keys, vals, out, loaded, fn != nil)
	t, bt := s.self, s.self.buf()
	var (
		lane    *int
		adapter func(uint64, bool) uint64
	)
	if fn != nil {
		l := 0
		lane, adapter = &l, func(old uint64, exists bool) uint64 { return fn(l, old, exists) }
	}
	inserted := 0
	for lo := 0; lo < len(keys); lo += BatchWidth {
		kc := keys[lo:min(lo+BatchWidth, len(keys))]
		t.openChunk(bt, kc)
		for l, k := range kc {
			var val uint64
			if vals != nil {
				val = vals[lo+l]
			}
			if lane != nil {
				*lane = lo + l
			}
			v, existed, err := t.rmwHashed(k, val, bt.hash[l], overwrite, adapter)
			if err != nil {
				return inserted, err
			}
			if out != nil {
				out[lo+l], loaded[lo+l] = v, existed
			}
			if !existed {
				inserted++
			}
		}
	}
	return inserted, nil
}

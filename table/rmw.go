package table

// This file wires the single-probe read-modify-write primitive (rmwHashed)
// of the two structurally distinct cores — chained hashing and Cuckoo —
// into the Table surface: Put, GetOrPut, Upsert and their batched forms.
// The five open-addressing schemes get the same surface from the probe
// kernel, batch driver (kern.rmwBatch) included.
//
// The surface is one generic type, rmwSurface, embedded in all three
// cores. Its batched forms are one driver, rmwBatchImpl: each chunk is
// opened by the scheme's openChunk — bulk-hash, then load back to back
// every line the scalar step is going to read first (the directory word or
// inline key of a chained lane, all k candidate slots of a Cuckoo lane) —
// and then applied lane by lane through the scheme's rmwHashed. Unlike a
// Get-then-Put sequence they issue exactly ONE probe sequence per key —
// the probe that finds the key doubles as the probe that finds its
// insertion point — which is what removes the double walk from
// aggregation builds and join builds. Batched semantics are sequential
// semantics: pairs apply in slice order, so a duplicate key later in the
// batch observes the effect of its earlier occurrence.
//
// Upsert callbacks must not touch the table they are invoked from; they
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

func checkBatchGetOrPut(keys, vals, out []uint64, loaded []bool) {
	if len(vals) != len(keys) {
		panic("table: GetOrPutBatch keys/vals length mismatch")
	}
	if out != nil && (len(out) < len(keys) || len(loaded) < len(keys)) {
		panic("table: GetOrPutBatch output slices shorter than keys")
	}
}

// rmwBatchImpl is the one chunk loop behind the three batched forms: vals
// nil stores fn's results, out/loaded nil drops the lanes' results, and
// lane, when set, is told which lane fn is about to be called for. It
// stops at the first failing key, leaving earlier pairs applied.
func rmwBatchImpl[T rmwTable](t T, keys, vals, out []uint64, loaded []bool, overwrite bool, lane *int, fn func(uint64, bool) uint64) (int, error) {
	bt := t.buf()
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
			v, existed, err := t.rmwHashed(k, val, bt.hash[l], overwrite, fn)
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

// rmwSurface is the mutating half of the Table surface for a core with its
// own rmwHashed: embedded in the core T (in place of a bare batchState) with
// self pointing back at it, it runs T's RMW primitive for the scalar forms
// and rmwBatchImpl over T's chunk opening for the batched ones.
type rmwSurface[T rmwTable] struct {
	batchState
	self T
}

// Put implements Table.
func (s *rmwSurface[T]) Put(key, val uint64) (bool, error) {
	_, existed, err := s.self.rmwHashed(key, val, s.self.hash(key), true, nil)
	return !existed && err == nil, err
}

// GetOrPut implements Table.
func (s *rmwSurface[T]) GetOrPut(key, val uint64) (uint64, bool, error) {
	return s.self.rmwHashed(key, val, s.self.hash(key), false, nil)
}

// Upsert implements Table.
func (s *rmwSurface[T]) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := s.self.rmwHashed(key, 0, s.self.hash(key), false, fn)
	return v, err
}

// PutBatch implements Table.
func (s *rmwSurface[T]) PutBatch(keys, vals []uint64) (int, error) {
	checkBatchPut(len(keys), len(vals))
	return rmwBatchImpl(s.self, keys, vals, nil, nil, true, nil, nil)
}

// GetOrPutBatch implements Table: one probe per key, results in slice order.
func (s *rmwSurface[T]) GetOrPutBatch(keys, vals, out []uint64, loaded []bool) (int, error) {
	checkBatchGetOrPut(keys, vals, out, loaded)
	return rmwBatchImpl(s.self, keys, vals, out, loaded, false, nil, nil)
}

// UpsertBatch implements Table. One adapter closure is allocated per call
// (not per key); the current lane is threaded through it.
func (s *rmwSurface[T]) UpsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	lane := 0
	return rmwBatchImpl(s.self, keys, nil, nil, nil, false, &lane, func(old uint64, exists bool) uint64 { return fn(lane, old, exists) })
}

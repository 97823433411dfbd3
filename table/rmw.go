package table

// This file wires the single-probe read-modify-write primitive (rmwHashed)
// of the two structurally distinct cores — chained hashing and Cuckoo —
// into the unified Table surface: TryPut, GetOrPut, Upsert and their
// batched forms, plus the Go 1.23 All iterator and the Rehashes
// observability accessor. The five open-addressing schemes get the same
// surface from the probe kernel, batch driver (kern.rmwBatch) included.
//
// The batched forms here are one generic driver, rmwBatchImpl, embedded in
// all three types as rmwSurface: each chunk is opened by the scheme's
// openChunk — bulk-hash,
// then load back to back every line the scalar step is going to read first
// (the directory word or inline key of a chained lane, all k candidate
// slots of a Cuckoo lane) — and then applied lane by lane through the
// scheme's rmwHashed. Unlike a Get-then-Put sequence they issue exactly ONE
// probe sequence per key — the probe that finds the key doubles as the
// probe that finds its insertion point — which is what removes the double
// walk from aggregation builds and join builds. Batched semantics are
// sequential semantics: pairs apply in slice order, so a duplicate key
// later in the batch observes the effect of its earlier occurrence.
//
// Upsert callbacks must not touch the table they are invoked from; they
// run mid-probe.

import "iter"

// rmwTable is the internal hook the generic batched implementations need:
// the scheme's chunk buffer, its chunk opening (which leaves the lanes'
// hash codes in bt.hash for the schemes whose rmwHashed takes one), and
// its single-probe RMW primitive.
type rmwTable interface {
	Map
	buf() *batchBuf
	openChunk(bt *batchBuf, keys []uint64)
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

// rmwSurface is the batched half of the Table surface for a core with its
// own rmwHashed: embedded in the core T (in place of a bare batchState) with
// self pointing back at it, it runs rmwBatchImpl over T's chunk opening and
// RMW primitive.
type rmwSurface[T rmwTable] struct {
	batchState
	self T
}

// TryPutBatch implements Table: PutBatch with the ErrFull contract.
func (s *rmwSurface[T]) TryPutBatch(keys, vals []uint64) (int, error) {
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

// All implements Table.
func (s *rmwSurface[T]) All() iter.Seq2[uint64, uint64] { return allOf(s.self) }

// allOf adapts Range to a Go 1.23 range-over-func iterator.
func allOf(m Map) iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) { m.Range(yield) }
}

// ---------------------------------------------------------------------------
// Chained8 / Chained24
// ---------------------------------------------------------------------------

// TryPut implements Table; chained tables never fill, so err is always nil.
func (t *Chained8) TryPut(key, val uint64) (bool, error) { return t.Put(key, val), nil }

// GetOrPut implements Table.
func (t *Chained8) GetOrPut(key, val uint64) (uint64, bool, error) {
	return t.rmwHashed(key, val, t.fn.Hash(key), false, nil)
}

// Upsert implements Table.
func (t *Chained8) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := t.rmwHashed(key, 0, t.fn.Hash(key), false, fn)
	return v, err
}

// Rehashes returns the number of directory-doubling events, for Stats.
func (t *Chained8) Rehashes() int { return t.grows }

// TryPut implements Table; chained tables never fill, so err is always nil.
func (t *Chained24) TryPut(key, val uint64) (bool, error) { return t.Put(key, val), nil }

// GetOrPut implements Table.
func (t *Chained24) GetOrPut(key, val uint64) (uint64, bool, error) {
	return t.rmwHashed(key, val, t.fn.Hash(key), false, nil)
}

// Upsert implements Table.
func (t *Chained24) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := t.rmwHashed(key, 0, t.fn.Hash(key), false, fn)
	return v, err
}

// Rehashes returns the number of directory-doubling events, for Stats.
func (t *Chained24) Rehashes() int { return t.grows }

// ---------------------------------------------------------------------------
// Cuckoo
// ---------------------------------------------------------------------------

// TryPut implements Table.
func (t *Cuckoo) TryPut(key, val uint64) (bool, error) {
	_, existed, err := t.rmwHashed(key, val, 0, true, nil)
	return !existed && err == nil, err
}

// GetOrPut implements Table.
func (t *Cuckoo) GetOrPut(key, val uint64) (uint64, bool, error) {
	return t.rmwHashed(key, val, 0, false, nil)
}

// Upsert implements Table.
func (t *Cuckoo) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := t.rmwHashed(key, 0, 0, false, fn)
	return v, err
}

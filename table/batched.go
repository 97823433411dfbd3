package table

// This file defines the batched execution pipeline: every scheme's GetBatch
// and mutating batches process keys in chunks of BatchWidth. The paper's
// central finding is that hash-table cost is dominated by per-key latency —
// dependent loads plus per-call overhead — and its §7 vectorized variants
// attack only the comparison. The batched pipeline attacks the rest:
//
//  1. All keys of a chunk are hashed with one hashfn.HashBatch call,
//     hoisting the interface dispatch and parameter loads out of the loop.
//  2. A touch pass loads every lane's home-slot key word back to back,
//     before any lane is resolved, so the chunk's home-line cache misses
//     are in flight together (kern.hashAndTouch). A first-probe pass then
//     walks every key's home line (lookups) or tries its home slot
//     (mutations, kern.rmwBatch) in a tight loop. At moderate load factors
//     most lanes resolve right there.
//  3. Unresolved lanes enter a round-robin walk: each round advances every
//     live probe sequence by one step. Consecutive loads belong to
//     *different* sequences, so they are independent and the memory system
//     overlaps their misses — the software analogue of the group
//     prefetching / AMAC literature the paper cites for vectorized probing.
//
// Batched semantics are exactly sequential semantics: GetBatch(keys)[i]
// equals Get(keys[i]), and PutBatch applies its pairs in slice order, so
// duplicate keys inside a batch behave like consecutive scalar Puts. The
// property tests cross-check both on randomized workloads.
//
// The open-addressing schemes share one implementation of the chunk
// loops and lane walks (kernel.go), with no indirect call on a per-key
// path; the chained core (ChainedH8 and ChainedH24, one walk over either
// directory layout) and Cuckoo keep bespoke lookup walks over their chain
// and candidate-set structures, and open their mutation chunks with a
// touch pass of their own (openChunk) ahead of rmw.go's generic driver.

import (
	"sync"

	"repro/hashfn"
)

// BatchWidth is the chunk size of the batched pipeline. 64 keys keep one
// chunk's hash codes, cursors and lane list inside L1 while offering the
// memory system dozens of independent probe streams.
const BatchWidth = hashfn.DefaultBatchWidth

func checkBatchGet(nKeys, nVals, nOK int) {
	if nVals < nKeys || nOK < nKeys {
		panic("table: GetBatch output slices shorter than keys")
	}
}

func checkBatchPut(nKeys, nVals int) {
	if nKeys != nVals {
		panic("table: PutBatch keys/vals length mismatch")
	}
}

// batchBuf holds one chunk's worth of per-lane state. Mutations use the
// buffer their table owns (batchState, lazily allocated): a table has one
// writer at a time by contract, so one suffices and the hot path allocates
// nothing. Lookups write no table state at all — GetBatch takes its
// scratch from readBufs for the duration of the call — so any number of
// callers may GetBatch one table at once, as shard's wait-free readers do.
type batchBuf struct {
	hash [BatchWidth]uint64 // hash codes from the bulk-hash pass
	a    [BatchWidth]uint64 // per-lane cursor (scheme-specific meaning)
	b    [BatchWidth]uint64 // per-lane auxiliary counter (step, displacement)
	lane [BatchWidth]int32  // live-lane list for the round-robin walk
	sink uint64             // where the touch passes fold their loads (never read)
}

// batchState is embedded in every scheme to carry the lazily allocated
// chunk buffer of its mutation pipelines.
type batchState struct {
	bt *batchBuf
}

func (s *batchState) buf() *batchBuf {
	if s.bt == nil {
		s.bt = new(batchBuf)
	}
	return s.bt
}

// readBufs lends a GetBatch call its chunk scratch. (On the stack the
// buffer would escape through the hash function's interface call and cost
// the call its allocations back.)
var readBufs = sync.Pool{New: func() any { return new(batchBuf) }}

// getBatchImpl is GetBatch for every core: the keys go through the
// scheme's read-only chunk walk BatchWidth at a time, on scratch that is
// the call's own.
func getBatchImpl[T interface {
	getChunk(bt *batchBuf, keys, vals []uint64, ok []bool) int
}](t T, keys, vals []uint64, ok []bool) int {
	checkBatchGet(len(keys), len(vals), len(ok))
	bt := readBufs.Get().(*batchBuf)
	hits := 0
	for lo := 0; lo < len(keys); lo += BatchWidth {
		hi := min(lo+BatchWidth, len(keys))
		hits += t.getChunk(bt, keys[lo:hi], vals[lo:hi], ok[lo:hi])
	}
	readBufs.Put(bt)
	return hits
}

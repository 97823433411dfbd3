package workload

import (
	"fmt"

	"repro/dist"
	"repro/internal/prng"
)

// Op codes of the RW tape.
const (
	OpInsert uint8 = iota
	OpDelete
	OpLookupHit
	OpLookupMiss
)

// Tape is a pre-generated RW operation stream. The same tape is replayed
// against every scheme so all tables see bit-identical workloads; the
// delete/lookup targets were chosen by simulating the live key set once,
// independent of any table implementation.
type Tape struct {
	Kinds []uint8
	Keys  []uint64

	Inserts, Deletes, Hits, Misses int
	// FinalLive is the number of live keys after the whole tape.
	FinalLive int
}

// Len returns the number of operations on the tape.
func (t *Tape) Len() int { return len(t.Kinds) }

// missBase is the generator index where guaranteed-absent lookup keys
// start; no insert ever reaches it (tapes are far shorter than 2^40 ops).
const missBase = uint64(1) << 40

// GenRWTape generates an RW tape of ops operations over a table initially
// holding the first initial keys of gen (§6):
//
//   - with probability updatePct% the operation is an update, split
//     insert:delete = 4:1;
//   - otherwise it is a lookup, split successful:unsuccessful = 3:1.
//
// Deletes and successful lookups target uniformly random live keys;
// inserts take the next fresh key of the distribution; unsuccessful
// lookups take keys from a disjoint index range of the same distribution.
func GenRWTape(gen dist.Generator, initial, ops, updatePct int, seed uint64) *Tape {
	if updatePct < 0 || updatePct > 100 {
		panic(fmt.Sprintf("workload: update percentage %d outside [0,100]", updatePct))
	}
	rng := prng.NewXoshiro256(seed ^ 0x7a9e7a9e7a9e7a9e)
	t := &Tape{
		Kinds: make([]uint8, 0, ops),
		Keys:  make([]uint64, 0, ops),
	}
	live := make([]uint64, initial)
	for i := range live {
		live[i] = gen.Key(uint64(i))
	}
	nextFresh := uint64(initial)
	nextMiss := missBase
	for i := 0; i < ops; i++ {
		if int(rng.Uint64n(100)) < updatePct {
			// Update: insert 4 : delete 1, falling back to insert when
			// nothing is left to delete.
			if rng.Uint64n(5) < 4 || len(live) == 0 {
				k := gen.Key(nextFresh)
				nextFresh++
				live = append(live, k)
				t.Kinds = append(t.Kinds, OpInsert)
				t.Keys = append(t.Keys, k)
				t.Inserts++
			} else {
				j := rng.Intn(len(live))
				k := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				t.Kinds = append(t.Kinds, OpDelete)
				t.Keys = append(t.Keys, k)
				t.Deletes++
			}
			continue
		}
		// Lookup: successful 3 : unsuccessful 1.
		if rng.Uint64n(4) < 3 && len(live) > 0 {
			k := live[rng.Intn(len(live))]
			t.Kinds = append(t.Kinds, OpLookupHit)
			t.Keys = append(t.Keys, k)
			t.Hits++
		} else {
			k := gen.Key(nextMiss)
			nextMiss++
			t.Kinds = append(t.Kinds, OpLookupMiss)
			t.Keys = append(t.Keys, k)
			t.Misses++
		}
	}
	t.FinalLive = len(live)
	return t
}

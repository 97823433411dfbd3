package bench

// The paper's two workloads, WORM (write-once-read-many, §5) and RW
// (read-write, §6), defined once for every caller that runs them.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/dist"
	"repro/hashfn"
	"repro/internal/prng"
	"repro/table"
)

// NewWORMTable builds an empty growth-disabled table for a WORM experiment,
// applying the §4.5 memory-budget directory sizing to the chained schemes.
// It uses New rather than Open because callers reach the schemes'
// diagnostics (Displacements, ChainLengths, WayOccupancy, ...) from the
// returned Table through interface assertions, which a Handle does not
// offer. Overfilling it is ErrFull.
func NewWORMTable(scheme table.Scheme, family hashfn.Family, capacity int, alpha float64, seed uint64) (table.Table, error) {
	cfg := table.Config{
		InitialCapacity: capacity,
		MaxLoadFactor:   0, // WORM tables are pre-allocated and never rehash
		Family:          family,
		Seed:            seed,
	}
	switch scheme {
	case table.SchemeChained8:
		cfg.InitialCapacity = chained8DirectorySlots(alpha, capacity)
	case table.SchemeChained24:
		cfg.InitialCapacity = chained24DirectorySlots(alpha, capacity)
	}
	return table.New(scheme, cfg)
}

// ---------------------------------------------------------------------------
// §4.5 memory-budget directory sizing
// ---------------------------------------------------------------------------

// chainedBudgetFactor is the paper's memory allowance for chained tables:
// their footprint may exceed the open-addressing footprint by at most 10%.
const chainedBudgetFactor = 1.10

// chainedBudget is the §4.5 budget in bytes for a chained table standing in
// for an open-addressing table of oaCapacity 16-byte slots.
func chainedBudget(oaCapacity int) float64 {
	return chainedBudgetFactor * 16 * float64(oaCapacity)
}

// floorPow2 returns the largest power of two <= x (minimum 8).
func floorPow2(x float64) int {
	if x < 8 {
		return 8
	}
	return 1 << uint(bits.Len64(uint64(x))-1)
}

// chained8DirectorySlots returns the largest power-of-two directory size
// such that a ChainedH8 table holding n = alpha*oaCapacity entries stays
// within 110% of the open-addressing footprint 16*oaCapacity (§4.5). Every
// ChainedH8 entry lives in the slab (24 bytes), so the directory gets what
// remains of the budget at 8 bytes per slot.
func chained8DirectorySlots(alpha float64, oaCapacity int) int {
	n := alpha * float64(oaCapacity)
	remaining := chainedBudget(oaCapacity) - 24*n
	return floorPow2(remaining / 8)
}

// chained24DirectorySlots returns the largest power-of-two directory size
// whose 24-byte slots alone fit the §4.5 budget; overflow chains must fit
// in the remaining slack, which fitsChained24Budget estimates.
func chained24DirectorySlots(alpha float64, oaCapacity int) int {
	return floorPow2(chainedBudget(oaCapacity) / 24)
}

// expectedChained24Overflow estimates, for n entries hashed uniformly into
// dirSlots buckets, how many entries overflow into chains: n minus the
// expected number of occupied buckets m*(1 - (1-1/m)^n) ~= m*(1-e^(-n/m)).
func expectedChained24Overflow(n, dirSlots int) float64 {
	m := float64(dirSlots)
	lam := float64(n) / m
	occupied := m * (1 - math.Exp(-lam))
	return float64(n) - occupied
}

// fitsChained24Budget reports whether a ChainedH24 table with the §4.5
// directory sizing is expected to hold n = alpha*oaCapacity entries within
// the 110% budget. Above alpha = 0.5 this returns false — the paper's
// reason for dropping chained hashing from the high-load-factor
// experiments, and Figure 4's rule for which ChainedH24 points it runs.
func fitsChained24Budget(alpha float64, oaCapacity int) bool {
	dir := chained24DirectorySlots(alpha, oaCapacity)
	n := int(alpha * float64(oaCapacity))
	overflow := expectedChained24Overflow(n, dir)
	return float64(dir)*24+overflow*24 <= chainedBudget(oaCapacity)
}

// initialCapacityFor returns a power-of-two capacity that places initial
// keys at just under 50% load factor, the paper's ~47% starting point of
// every RW run (§6).
func initialCapacityFor(initial int) int {
	c := 8
	for c < initial*2+1 {
		c *= 2
	}
	return c
}

// ---------------------------------------------------------------------------
// The RW tape (§6)
// ---------------------------------------------------------------------------

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
		panic(fmt.Sprintf("bench: update percentage %d outside [0,100]", updatePct))
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

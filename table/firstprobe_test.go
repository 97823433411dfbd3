package table

// The kernel's mutating batches settle a lane on its home slot when they
// can (rmwBatch's first-probe pass) and hand it to rmwHashed when they
// cannot. Either way a batch must be the scalar chain: same returns, same
// callback sequence, same Len, the same entry in every slot, same Stats.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/prng"
)

// fpCase is one table configuration and the keys already in it when the
// batch arrives; prepare runs identically on the batched table and its
// scalar twin.
type fpCase struct {
	name    string
	cfg     Config
	prepare func(t *testing.T, m Table)
	batch   func(m Table) []uint64
}

// fpKeys draws n keys for a batch: a small universe so that keys repeat,
// both sentinel keys, the same key twice inside one chunk and across a
// chunk edge, and a run of keys that all share one home slot of m.
func fpKeys(m Table, n int, seed uint64) []uint64 {
	rng := prng.NewXoshiro256(seed)
	keys := make([]uint64, 0, n+16)
	for len(keys) < n {
		switch rng.Uint64n(24) {
		case 0:
			keys = append(keys, emptyKey)
		case 1:
			keys = append(keys, tombKey)
		default:
			keys = append(keys, rng.Uint64n(uint64(n))+1)
		}
	}
	keys[3], keys[40] = 777, 777 // the second must see the first
	keys[BatchWidth-1], keys[BatchWidth] = 888, 888
	home := m.(interface{ home(uint64) uint64 }).home
	for k, want := uint64(1<<32), home(1<<32); len(keys) < n+8; k++ {
		if home(k) == want {
			keys = append(keys, k)
		}
	}
	return append(keys, keys[n:n+4]...) // and each collider again
}

func fpDistinct(from uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = prng.Mix(from+uint64(i)) | 2 // never a sentinel
	}
	return keys
}

var fpCases = []fpCase{
	{
		name:  "fixed",
		cfg:   Config{InitialCapacity: 1 << 10, Seed: 7},
		batch: func(m Table) []uint64 { return fpKeys(m, 400, 1) },
	},
	{
		// The pass stands down while the table holds tombstones (QP;
		// the linear rows delete by shifting back and keep it):
		// filled to the brim and half deleted, a QP table owes a
		// rehash in place before its next insert or update.
		name: "tombstones",
		cfg:  Config{InitialCapacity: 64, Seed: 7},
		prepare: func(t *testing.T, m Table) {
			var err error
			for k := uint64(1); err == nil; k++ {
				_, err = tryPut(m, k, k)
			}
			for k := uint64(1); k <= uint64(m.Len()); k += 2 {
				m.Delete(k)
			}
		},
		batch: func(Table) []uint64 {
			keys := fpDistinct(1, 20)
			for k := uint64(2); k <= 60; k += 2 {
				keys = append(keys, k, k-1) // one still there, one deleted
			}
			return append(keys, emptyKey, tombKey, 2, 4)
		},
	},
	{
		name:  "growing",
		cfg:   Config{InitialCapacity: 64, MaxLoadFactor: 0.8, Seed: 7},
		batch: func(m Table) []uint64 { return fpKeys(m, 400, 3) },
	},
	{
		// Two free slots left and a new key at home on each: the first
		// goes in, the second takes the last slot where the probe
		// sequence may fill the table (QP) and is ErrFull where it
		// must keep one slot empty; nothing new fits after that.
		name: "last free slot",
		cfg:  Config{InitialCapacity: 128, Seed: 7},
		prepare: func(t *testing.T, m Table) {
			if _, err := putBatch(m, fpDistinct(1, 126), make([]uint64, 126)); err != nil {
				t.Fatal(err)
			}
		},
		batch: func(m Table) []uint64 {
			k := m.(interface {
				home(uint64) uint64
				keyAt(uint64) uint64
			})
			var keys []uint64
			for slot := uint64(0); slot < 128; slot++ {
				for key := uint64(1 << 40); k.keyAt(slot) == emptyKey; key++ {
					if k.home(key) == slot {
						keys = append(keys, key)
						break
					}
				}
			}
			return append(keys, 1<<41, keys[0], 1<<42)
		},
	},
}

// fpOp runs one entry point batched on b and as a scalar loop on s and
// fails on the first difference in what they return or call back.
type fpOp struct {
	name string
	run  func(t *testing.T, b, s Table, keys, vals []uint64)
}

func sameErr(t *testing.T, lane int, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || errors.Is(got, ErrFull) != errors.Is(want, ErrFull) {
		t.Fatalf("lane %d: batch error %v, scalar %v", lane, got, want)
	}
}

func fpPutBatch(t *testing.T, b, s Table, keys, vals []uint64) {
	got, gotErr := putBatch(b, keys, vals)
	want, lane := 0, 0
	var wantErr error
	for ; lane < len(keys) && wantErr == nil; lane++ {
		var ins bool
		if ins, wantErr = tryPut(s, keys[lane], vals[lane]); ins {
			want++
		}
	}
	sameErr(t, lane, gotErr, wantErr)
	if got != want {
		t.Fatalf("inserted %d, scalar %d", got, want)
	}
}

// fpOps lists the mutating batch entry points. "TryPutBatch" runs PutBatch
// again: the error-reporting insert had that name before Put and PutBatch
// took its signature, and its subtests keep the name so that their results
// stay comparable across the rename.
var fpOps = []fpOp{
	{"PutBatch", fpPutBatch},
	{"TryPutBatch", fpPutBatch},
	{"GetOrPutBatch", func(t *testing.T, b, s Table, keys, vals []uint64) {
		out := append([]uint64(nil), vals...) // out aliases the insert values
		loaded := make([]bool, len(keys))
		got, gotErr := getOrPutBatch(b, keys, out, out, loaded)
		want, lane := 0, 0
		var wantErr error
		for ; lane < len(keys); lane++ {
			v, ld, err := getOrPut(s, keys[lane], vals[lane])
			if wantErr = err; err != nil {
				break
			}
			if out[lane] != v || loaded[lane] != ld {
				t.Fatalf("lane %d key %#x: batch (%d,%v), scalar (%d,%v)", lane, keys[lane], out[lane], loaded[lane], v, ld)
			}
			if !ld {
				want++
			}
		}
		sameErr(t, lane, gotErr, wantErr)
		if got != want {
			t.Fatalf("inserted %d, scalar %d", got, want)
		}
	}},
	{"UpsertBatch", func(t *testing.T, b, s Table, keys, vals []uint64) {
		type call struct {
			lane   int
			old    uint64
			exists bool
		}
		var gotCalls, wantCalls []call
		got, gotErr := upsertBatch(b, keys, func(lane int, old uint64, exists bool) uint64 {
			gotCalls = append(gotCalls, call{lane, old, exists})
			return old*31 + vals[lane]
		})
		want, lane := 0, 0
		var wantErr error
		for ; lane < len(keys) && wantErr == nil; lane++ {
			_, wantErr = upsert(s, keys[lane], func(old uint64, exists bool) uint64 {
				wantCalls = append(wantCalls, call{lane, old, exists})
				if !exists {
					want++
				}
				return old*31 + vals[lane]
			})
		}
		sameErr(t, lane, gotErr, wantErr)
		if got != want || !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("inserted %d over %d calls, scalar %d over %d; or the calls differ", got, len(gotCalls), want, len(wantCalls))
		}
	}},
}

// slotOrder lists a table's entries in the order Range yields them: the
// sentinel entries, then slot by slot.
func slotOrder(m Table) [][2]uint64 {
	var out [][2]uint64
	rangeAll(m, func(k, v uint64) bool {
		out = append(out, [2]uint64{k, v})
		return true
	})
	return out
}

func TestBatchMutationsEqualScalarChain(t *testing.T) {
	for _, scheme := range KernelSchemes() {
		for _, c := range fpCases {
			for _, op := range fpOps {
				t.Run(fmt.Sprintf("%s/%s/%s", scheme, c.name, op.name), func(t *testing.T) {
					b, s := mustNew(scheme, c.cfg), mustNew(scheme, c.cfg)
					if c.prepare != nil {
						c.prepare(t, b)
						c.prepare(t, s)
					}
					keys := c.batch(b)
					vals := make([]uint64, len(keys))
					for i := range vals {
						vals[i] = uint64(i)*2 + 1
					}
					op.run(t, b, s, keys, vals)
					if b.Len() != s.Len() {
						t.Fatalf("Len %d, scalar %d", b.Len(), s.Len())
					}
					if got, want := slotOrder(b), slotOrder(s); !reflect.DeepEqual(got, want) {
						t.Fatalf("slot contents differ from the scalar chain's (%d vs %d entries)", len(got), len(want))
					}
					if got, want := StatsOf(b), StatsOf(s); !reflect.DeepEqual(got, want) {
						t.Fatalf("Stats %+v, scalar %+v", got, want)
					}
				})
			}
		}
	}
}

// TestBatchMutationsAllocateNothing: once the table owns its chunk scratch
// a mutating batch allocates nothing, UpsertBatch's lane adapter included.
func TestBatchMutationsAllocateNothing(t *testing.T) {
	for _, scheme := range KernelSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			m := mustNew(scheme, Config{InitialCapacity: 1 << 12, Seed: 3})
			keys := fpKeys(m, 1000, 9)
			vals, out, loaded := make([]uint64, len(keys)), make([]uint64, len(keys)), make([]bool, len(keys))
			fold := func(lane int, old uint64, _ bool) uint64 { return old + vals[lane] }
			calls := map[string]func(){
				"PutBatch":      func() { putBatch(m, keys, vals) },
				"GetOrPutBatch": func() { getOrPutBatch(m, keys, vals, out, loaded) },
				"UpsertBatch":   func() { upsertBatch(m, keys, fold) },
			}
			calls["PutBatch"]() // warm: the keys are in, the scratch is there
			for name, call := range calls {
				if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
					t.Errorf("%s: %v allocations per call", name, allocs)
				}
			}
		})
	}
}

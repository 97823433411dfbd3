package table

// The chained and Cuckoo cores open every batch mutation chunk with a touch
// pass of their own (openChunk) and apply the lanes through the generic
// rmw.go drivers; Cuckoo's GetBatch runs chunks of its own width
// (cuckooChunk), one way at a time, with no hit branch. These tests pin
// that the touch is only ever a hint and that a miss reads (0, false):
// every batch entry point of the five core variants equals its scalar
// method on a twin table and a plain map, lane for lane, at the
// chunk-boundary lengths of both widths, with sentinels and duplicates
// split across chunks, and through a function redraw, a directory doubling
// and an ErrFull in the middle of a chunk.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/prng"
)

// batchCores are the five table variants outside the probe kernel.
var batchCores = []struct {
	name string
	new  func(Config) Table
}{
	{"Chained8", func(c Config) Table { return newChained(SchemeChained8, c) }},
	{"Chained24", func(c Config) Table { return newChained(SchemeChained24, c) }},
	{"CuckooH2", func(c Config) Table { return newCuckooK(c, 2) }},
	{"CuckooH3", func(c Config) Table { return newCuckooK(c, 3) }},
	{"CuckooH4", func(c Config) Table { return newCuckooK(c, 4) }},
}

var batchLengths = []int{0, 1, 63, 64, 65, 255, 256, 257, 4097}

// coreKeys draws n keys from a universe of about n/2, so duplicates are
// common, then plants what the chunk loops must not trip over: both
// sentinels on either side of the chunk boundaries the length reaches, at
// BatchWidth and at Cuckoo's GetBatch width, and one key twice inside the
// first chunk.
func coreKeys(n int, seed uint64) []uint64 {
	rng := prng.NewXoshiro256(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64n(uint64(n/2)+1)*0x9e3779b97f4a7c15 + 1
	}
	for _, width := range []int{BatchWidth, cuckooChunk} {
		for edge := width; edge < n; edge += 16 * width {
			keys[edge-1], keys[edge] = emptyKey, tombKey
			if edge+width < n {
				keys[edge+width-1], keys[edge+width] = tombKey, emptyKey
			}
		}
	}
	if n > 9 {
		keys[3], keys[9] = 777, 777
	}
	return keys
}

func bumpOrOne(old uint64, exists bool) uint64 {
	if exists {
		return old*3 + 1
	}
	return 1
}

// sameContents fails unless m holds exactly the oracle's pairs.
func sameContents(t *testing.T, m Table, oracle map[uint64]uint64) {
	t.Helper()
	if m.Len() != len(oracle) {
		t.Fatalf("Len %d, oracle %d", m.Len(), len(oracle))
	}
	seen := 0
	rangeAll(m, func(k, v uint64) bool {
		if want, ok := oracle[k]; !ok || want != v {
			t.Fatalf("key %d: table holds %d, oracle %d (present %v)", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(oracle) {
		t.Fatalf("Range visited %d entries, oracle has %d", seen, len(oracle))
	}
}

// checkGetBatch probes m with the keys plus as many absent ones, and at
// least enough of those for the probes to cross a Cuckoo GetBatch chunk,
// and compares every lane with the oracle and with scalar Get, the value
// of a miss included.
func checkGetBatch(t *testing.T, m Table, keys []uint64, oracle map[uint64]uint64) {
	t.Helper()
	probes := append([]uint64{}, keys...)
	for i := range max(len(keys), cuckooChunk) {
		probes = append(probes, uint64(i)*0x9e3779b97f4a7c15+2)
	}
	probes = append(probes, emptyKey, tombKey)
	vals := make([]uint64, len(probes))
	ok := make([]bool, len(probes))
	hits := m.GetBatch(probes, vals, ok)
	want := 0
	for i, k := range probes {
		wv, wok := oracle[k]
		sv, sok := m.Get(k)
		if ok[i] != wok || vals[i] != wv || sok != wok || sv != wv {
			t.Fatalf("probe %d key %d: batch (%d,%v) scalar (%d,%v) oracle (%d,%v)", i, k, vals[i], ok[i], sv, sok, wv, wok)
		}
		if wok {
			want++
		}
	}
	if hits != want {
		t.Fatalf("GetBatch hits %d, want %d", hits, want)
	}
}

// applyBatchOp runs one batch entry point on batched and its scalar
// method, lane by lane, on scalar and on the oracle, and compares what
// each lane reported and the two sides' inserted counts.
func applyBatchOp(t *testing.T, op string, batched, scalar Table, oracle map[uint64]uint64, keys, vals []uint64) {
	t.Helper()
	n := len(keys)
	var insB, insS int
	var err error
	put := func(i int) {
		if _, ok := oracle[keys[i]]; !ok {
			insS++
		}
		oracle[keys[i]] = vals[i]
	}
	switch op {
	case "PutBatch", "TryPutBatch":
		insB, err = putBatch(batched, keys, vals)
		for i, k := range keys {
			ins, err := tryPut(scalar, k, vals[i])
			if err != nil {
				t.Fatal(err)
			}
			if _, existed := oracle[k]; ins == existed {
				t.Fatalf("lane %d key %d: scalar Put inserted %v, oracle had it %v", i, k, ins, existed)
			}
			put(i)
		}
	case "GetOrPutBatch":
		out, loaded := make([]uint64, n), make([]bool, n)
		insB, err = getOrPutBatch(batched, keys, vals, out, loaded)
		for i, k := range keys {
			v, ok, err := getOrPut(scalar, k, vals[i])
			if err != nil {
				t.Fatal(err)
			}
			wv, wok := oracle[k]
			if !wok {
				wv = vals[i]
				oracle[k] = wv
				insS++
			}
			if v != wv || ok != wok || out[i] != wv || loaded[i] != wok {
				t.Fatalf("lane %d key %d: batch (%d,%v) scalar (%d,%v) oracle (%d,%v)", i, k, out[i], loaded[i], v, ok, wv, wok)
			}
		}
	case "UpsertBatch":
		lanes := 0
		insB, err = upsertBatch(batched, keys, func(lane int, old uint64, exists bool) uint64 {
			if lane != lanes {
				t.Fatalf("UpsertBatch called lane %d, want %d", lane, lanes)
			}
			lanes++
			return bumpOrOne(old, exists)
		})
		if lanes != n {
			t.Fatalf("UpsertBatch made %d calls for %d keys", lanes, n)
		}
		for _, k := range keys {
			v, err := upsert(scalar, k, bumpOrOne)
			if err != nil {
				t.Fatal(err)
			}
			wv, wok := oracle[k]
			if !wok {
				insS++
			}
			oracle[k] = bumpOrOne(wv, wok)
			if v != oracle[k] {
				t.Fatalf("key %d: scalar Upsert %d, oracle %d", k, v, oracle[k])
			}
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	if insB != insS {
		t.Fatalf("%s inserted %d, scalar path %d", op, insB, insS)
	}
}

// batchMutations names the mutating batch entry points, one subtest each.
// "TryPutBatch" runs PutBatch again: the error-reporting insert had that
// name before Put and PutBatch took its signature, and its subtests keep
// the name so that their results stay comparable across the rename.
var batchMutations = []string{"PutBatch", "TryPutBatch", "GetOrPutBatch", "UpsertBatch"}

// TestCoreBatchEqualsScalar: every batch entry point, at every
// chunk-boundary length, on a half-filled growing table.
func TestCoreBatchEqualsScalar(t *testing.T) {
	for _, core := range batchCores {
		for _, op := range batchMutations {
			for _, n := range batchLengths {
				t.Run(fmt.Sprintf("%s/%s/%d", core.name, op, n), func(t *testing.T) {
					cfg := Config{InitialCapacity: 64, MaxLoadFactor: 0.45, Seed: 7}
					batched, scalar := core.new(cfg), core.new(cfg)
					oracle := map[uint64]uint64{}
					// Half the keys are already there, so the batch mixes
					// updates with inserts.
					keys := coreKeys(n, uint64(n)+3)
					for i := 0; i < n; i += 2 {
						put(t, batched, keys[i], 5)
						put(t, scalar, keys[i], 5)
						oracle[keys[i]] = 5
					}
					vals := make([]uint64, n)
					for i := range vals {
						vals[i] = uint64(i) + 10
					}
					applyBatchOp(t, op, batched, scalar, oracle, keys, vals)
					sameContents(t, batched, oracle)
					sameContents(t, scalar, oracle)
					checkGetBatch(t, batched, keys, oracle)
				})
			}
		}
	}
}

// TestCoreBatchRebuildMidChunk: the table is rebuilt while a chunk's
// touches are outstanding — a Cuckoo function redraw (kick chains cut
// short so that they fail often), a chained directory doubling — and the
// lanes after it still land where the scalar path puts them.
func TestCoreBatchRebuildMidChunk(t *testing.T) {
	for _, core := range batchCores {
		for _, op := range batchMutations {
			t.Run(core.name+"/"+op, func(t *testing.T) {
				cfg := Config{InitialCapacity: 64, MaxLoadFactor: 0.9, Seed: 11}
				batched, scalar := core.new(cfg), core.new(cfg)
				for _, m := range []Table{batched, scalar} {
					if c, ok := m.(*cuckoo); ok {
						c.maxKicks = 2 // a kick chain gives up early: redraws are common
					}
				}
				oracle := map[uint64]uint64{}
				rng := prng.NewXoshiro256(5)
				fresh := func(n int) []uint64 {
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = rng.Next() | 1
					}
					return keys
				}
				for _, k := range fresh(24) {
					put(t, batched, k, 1)
					put(t, scalar, k, 1)
					oracle[k] = 1
				}
				type rebuilt interface {
					Rehashes() int
					Capacity() int
				}
				b := batched.(rebuilt)
				rehashes, capacity := b.Rehashes(), b.Capacity()
				// One chunk exactly: whatever is rebuilt is rebuilt inside it.
				keys := fresh(BatchWidth)
				vals := fresh(BatchWidth)
				applyBatchOp(t, op, batched, scalar, oracle, keys, vals)
				if b.Rehashes() == rehashes {
					t.Fatalf("Rehashes stayed at %d: nothing was rebuilt inside the chunk", rehashes)
				}
				if _, chained := batched.(chainMeasurer); chained && b.Capacity() != 2*capacity {
					t.Fatalf("directory %d -> %d slots, want one doubling", capacity, b.Capacity())
				}
				sameContents(t, batched, oracle)
				sameContents(t, scalar, oracle)
				checkGetBatch(t, batched, keys, oracle)
			})
		}
	}
}

// TestCuckooBatchErrFullMidBatch: a growth-disabled Cuckoo refuses a key in
// the middle of a batch; every pair before it is applied, none after, and
// the lanes before it reported what the scalar path reports.
func TestCuckooBatchErrFullMidBatch(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, op := range batchMutations {
			t.Run(fmt.Sprintf("k%d/%s", k, op), func(t *testing.T) {
				cfg := Config{InitialCapacity: 256, MaxLoadFactor: 0, Seed: 13}
				batched, scalar := newCuckooK(cfg, k), newCuckooK(cfg, k)
				rng := prng.NewXoshiro256(uint64(k))
				n := 5*BatchWidth + 5
				keys, vals := make([]uint64, n), make([]uint64, n)
				for i := range keys {
					keys[i], vals[i] = rng.Next()|1, uint64(i)+1
				}
				// The scalar twin finds the lane that fails.
				oracle := map[uint64]uint64{}
				fail := -1
				for i, key := range keys {
					if _, err := tryPut(scalar, key, vals[i]); err != nil {
						if !errors.Is(err, ErrFull) {
							t.Fatal(err)
						}
						fail = i
						break
					}
					oracle[key] = vals[i]
				}
				if fail <= BatchWidth || fail%BatchWidth == 0 {
					t.Fatalf("scalar path failed at lane %d: want a failure inside a later chunk", fail)
				}
				var ins int
				var err error
				out, loaded := make([]uint64, n), make([]bool, n)
				switch op {
				case "PutBatch", "TryPutBatch":
					ins, err = putBatch(batched, keys, vals)
				case "GetOrPutBatch":
					ins, err = getOrPutBatch(batched, keys, vals, out, loaded)
					for i := range keys {
						if want := i < fail; (out[i] == vals[i]) != want || loaded[i] {
							t.Fatalf("lane %d (failure at %d): out %d loaded %v", i, fail, out[i], loaded[i])
						}
					}
				case "UpsertBatch":
					ins, err = upsertBatch(batched, keys, func(lane int, _ uint64, exists bool) uint64 {
						if lane >= fail || exists {
							t.Fatalf("callback for lane %d (exists %v), failure at %d", lane, exists, fail)
						}
						return vals[lane]
					})
				}
				if !errors.Is(err, ErrFull) {
					t.Fatalf("err = %v, want ErrFull", err)
				}
				if ins != fail {
					t.Fatalf("inserted %d, want the %d lanes before the failure", ins, fail)
				}
				sameContents(t, batched, oracle)
				sameContents(t, scalar, oracle)
			})
		}
	}
}

// TestCoreBatchCallsAllocateNothing: in steady state (every key in place,
// the chunk scratch already there) GetBatch and PutBatch allocate
// nothing per call.
func TestCoreBatchCallsAllocateNothing(t *testing.T) {
	for _, core := range batchCores {
		t.Run(core.name, func(t *testing.T) {
			m := core.new(Config{InitialCapacity: 1 << 12, MaxLoadFactor: 0.4, Seed: 3})
			keys := coreKeys(1000, 17)
			vals := make([]uint64, len(keys))
			out, ok := make([]uint64, len(keys)), make([]bool, len(keys))
			if _, err := putBatch(m, keys, vals); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() { m.GetBatch(keys, out, ok) }); allocs != 0 {
				t.Errorf("GetBatch: %v allocations per call", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { putBatch(m, keys, vals) }); allocs != 0 {
				t.Errorf("PutBatch: %v allocations per call", allocs)
			}
		})
	}
}

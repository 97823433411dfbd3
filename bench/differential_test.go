package bench

// Differential property test: replay RW op tapes against every scheme —
// through the table.Open façade, partitioned and not — and cross-check
// every operation's result against a builtin map[uint64]uint64 oracle.
// The replay deliberately mixes Put/Get/Delete with the single-probe
// GetOrPut/Upsert primitives (including on lookup-miss keys, which then
// insert), and injects the sentinel keys 0 and 2^64-1 whose literal
// values collide with the empty/tombstone slot markers.

import (
	"fmt"
	"testing"

	"repro/dist"
	"repro/table"
)

// sentinelKeys are the two keys routed around the slot markers.
var sentinelKeys = []uint64{0, ^uint64(0)}

func replayDifferential(t *testing.T, scheme table.Scheme, partitions int, seed uint64) {
	t.Helper()
	h, err := table.Open(
		table.WithScheme(scheme),
		table.WithCapacity(1<<9),
		table.WithMaxLoadFactor(0.8),
		table.WithSeed(seed),
		table.WithPartitions(partitions),
	)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}

	checkPut := func(k, v uint64) {
		ins, err := h.Put(k, v)
		if err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		_, existed := oracle[k]
		if ins == existed {
			t.Fatalf("Put(%d) inserted=%v, oracle existed=%v", k, ins, existed)
		}
		oracle[k] = v
	}
	checkGetOrPut := func(k, v uint64) {
		got, loaded, err := h.GetOrPut(k, v)
		if err != nil {
			t.Fatalf("GetOrPut(%d): %v", k, err)
		}
		if ov, existed := oracle[k]; existed {
			if !loaded || got != ov {
				t.Fatalf("GetOrPut(%d) = %d,%v; oracle has %d", k, got, loaded, ov)
			}
		} else {
			if loaded || got != v {
				t.Fatalf("GetOrPut(%d) = %d,%v; expected insert of %d", k, got, loaded, v)
			}
			oracle[k] = v
		}
	}
	checkUpsert := func(k, v uint64) {
		got, err := h.Upsert(k, func(old uint64, exists bool) uint64 {
			if exists {
				return old + 1
			}
			return v
		})
		if err != nil {
			t.Fatalf("Upsert(%d): %v", k, err)
		}
		want := v
		if ov, existed := oracle[k]; existed {
			want = ov + 1
		}
		if got != want {
			t.Fatalf("Upsert(%d) = %d, want %d", k, got, want)
		}
		oracle[k] = want
	}
	checkGet := func(k uint64) {
		v, ok := h.Get(k)
		ov, existed := oracle[k]
		if ok != existed || (ok && v != ov) {
			t.Fatalf("Get(%d) = %d,%v; oracle %d,%v", k, v, ok, ov, existed)
		}
	}
	checkDelete := func(k uint64) {
		got := h.Delete(k)
		_, existed := oracle[k]
		if got != existed {
			t.Fatalf("Delete(%d) = %v, oracle existed=%v", k, got, existed)
		}
		delete(oracle, k)
	}

	// Sentinel warm-up: run every op shape over the marker-colliding keys.
	for round, k := range append(sentinelKeys, sentinelKeys...) {
		checkGetOrPut(k, uint64(round)+7)
		checkPut(k, uint64(round)+100)
		checkUpsert(k, 3)
		checkGet(k)
		if round >= len(sentinelKeys) {
			checkDelete(k)
			checkGet(k)
		}
	}

	// Tape replay, rotating through the op variants so every primitive
	// sees hits, misses, deletes and re-inserts.
	gen := dist.New(dist.Sparse, seed)
	tape := GenRWTape(gen, 256, 6000, 40, seed)
	for i, kind := range tape.Kinds {
		k := tape.Keys[i]
		switch kind {
		case OpInsert:
			switch i % 3 {
			case 0:
				checkPut(k, k^0xabcd)
			case 1:
				checkGetOrPut(k, k^0x1234)
			default:
				checkUpsert(k, k^0x9999)
			}
		case OpDelete:
			checkDelete(k)
		default: // OpLookupHit / OpLookupMiss
			if i%2 == 0 {
				checkGet(k)
			} else {
				// GetOrPut on a lookup key: a miss inserts, a hit reads —
				// the oracle mirrors both.
				checkGetOrPut(k, k^0x5a5a)
			}
		}
	}

	// Batched single-probe pass over a mix of live and absent keys.
	var keys, vals []uint64
	for i := 0; i < 512; i++ {
		keys = append(keys, tape.Keys[int(seed+uint64(i*7))%len(tape.Keys)])
		vals = append(vals, uint64(i)|1<<40)
	}
	out := make([]uint64, len(keys))
	loaded := make([]bool, len(keys))
	if _, err := h.GetOrPutBatch(keys, vals, out, loaded); err != nil {
		t.Fatalf("GetOrPutBatch: %v", err)
	}
	for i, k := range keys {
		if ov, existed := oracle[k]; existed {
			if !loaded[i] || out[i] != ov {
				t.Fatalf("GetOrPutBatch lane %d key %d = %d,%v; oracle %d", i, k, out[i], loaded[i], ov)
			}
		} else {
			if loaded[i] || out[i] != vals[i] {
				t.Fatalf("GetOrPutBatch lane %d key %d = %d,%v; expected insert", i, k, out[i], loaded[i])
			}
			oracle[k] = vals[i]
		}
	}

	// Final state: size and full contents via the Go 1.23 iterator.
	if h.Len() != len(oracle) {
		t.Fatalf("final Len = %d, oracle %d", h.Len(), len(oracle))
	}
	seen := 0
	for k, v := range h.All() {
		ov, existed := oracle[k]
		if !existed || v != ov {
			t.Fatalf("All yielded %d=%d; oracle %d,%v", k, v, ov, existed)
		}
		seen++
	}
	if seen != len(oracle) {
		t.Fatalf("All yielded %d entries, oracle %d", seen, len(oracle))
	}
}

// TestDifferentialTapeReplay drives every scheme through the façade.
func TestDifferentialTapeReplay(t *testing.T) {
	schemes := table.AllSchemes()
	for _, scheme := range schemes {
		t.Run(string(scheme), func(t *testing.T) {
			replayDifferential(t, scheme, 1, 42)
		})
	}
}

// TestDifferentialTapeReplayStriped repeats the replay on partitioned
// handles (single-goroutine use; concurrency is covered by the -race CI
// job via TestStripedConcurrent in package table).
func TestDifferentialTapeReplayStriped(t *testing.T) {
	for _, p := range []int{2, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			replayDifferential(t, table.SchemeRH, p, 7)
		})
	}
}

//go:build !race

package shard_test

// Steady-state batch calls allocate nothing: the staging comes from the
// pool and the tables' chunk scratch is already there. Nor do the scalar
// writes, whose table callback is bound once per shard. Not a race-build
// test: there sync.Pool drops a quarter of what it is handed back.

import (
	"testing"

	"repro/table"
)

func TestBatchCallsAllocateNothing(t *testing.T) {
	e := newEngine(t, table.SchemeRH, 4, 1<<14, 0.85, 22)
	const width = 4096
	keys := make([]uint64, width)
	vals := make([]uint64, width)
	out := make([]uint64, width)
	ok := make([]bool, width)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		vals[i] = uint64(i)
	}
	// The first PutBatch inserts (and may resize); every later call finds
	// the keys in place on idle shards.
	if _, err := putBatch(e, keys, vals); err != nil {
		t.Fatal(err)
	}
	if !e.Drain() {
		t.Fatal("Drain did not reach idle")
	}
	bump := func(lane int, old uint64, _ bool) uint64 { return old + uint64(lane) }
	inc := func(old uint64, _ bool) uint64 { return old + 1 }
	calls := []struct {
		name string
		call func()
	}{
		{"GetBatch", func() { e.GetBatch(keys, out, ok) }},
		{"PutBatch", func() { putBatch(e, keys, vals) }},
		{"GetOrPutBatch", func() { getOrPutBatch(e, keys, vals, out, ok) }},
		{"UpsertBatch", func() { upsertBatch(e, keys, bump) }},
		{"Put", func() { tryPut(e, keys[0], vals[0]) }},
		{"GetOrPut", func() { getOrPut(e, keys[0], 0) }},
		{"Upsert", func() { upsert(e, keys[0], inc) }},
		{"Delete of an absent key", func() { e.Delete(0) }},
		{"Delete of a live key, then its Put", func() { e.Delete(keys[1]); tryPut(e, keys[1], vals[1]) }},
	}
	for _, c := range calls {
		c.call() // warm: pool, chunk scratch
		if allocs := testing.AllocsPerRun(100, c.call); allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state call, want 0", c.name, allocs)
		}
	}
}

func TestMutationHostingMigrationStepAllocatesNothing(t *testing.T) {
	// A resize in flight costs a mutation no allocation: the step collects
	// its chunk into the shard's own buffer through a callback built once,
	// the write reaches the successor through another, and the overlay only
	// allocates when it doubles. One shard, so every call below hosts a
	// step; large enough that the resize outlasts them.
	e := newEngine(t, table.SchemeRH, 1, 1<<16, 0.85, 5)
	key := func(i uint64) uint64 { return i*0x9e3779b97f4a7c15 + 1 }
	n := uint64(0)
	for e.Stats().Migrating == 0 {
		n++
		if _, err := tryPut(e, key(n), n); err != nil {
			t.Fatal(err)
		}
	}
	i := uint64(0)
	inc := func(old uint64, _ bool) uint64 { return old + 1 }
	calls := []struct {
		name string
		call func()
	}{
		{"Put of a frozen key", func() { i++; tryPut(e, key(i), i) }},
		{"Put of a new key", func() { n++; tryPut(e, key(n), n) }},
		{"GetOrPut of a frozen key", func() { i++; getOrPut(e, key(i), 0) }},
		{"GetOrPut of a new key", func() { n++; getOrPut(e, key(n), n) }},
		{"Upsert of a frozen key", func() { i++; upsert(e, key(i), inc) }},
		{"Upsert of a new key", func() { n++; upsert(e, key(n), inc) }},
		{"Delete of a frozen key", func() { i++; e.Delete(key(i)) }},
		{"Delete of an absent key", func() { i++; e.Delete(key(i) + 1) }},
	}
	for _, c := range calls {
		chunks := e.Stats().MigrationChunks
		if allocs := testing.AllocsPerRun(20, c.call); allocs != 0 {
			t.Errorf("%s mid-resize: %v allocations per call, want 0", c.name, allocs)
		}
		if st := e.Stats(); st.Migrating != 1 || st.MigrationChunks != chunks+21 {
			t.Fatalf("%s: %d steps over 21 calls, migrating %d: the calls did not each host a step", c.name, st.MigrationChunks-chunks, st.Migrating)
		}
	}
	// Nor does it cost a batched read one: the successor's misses are
	// compacted into pooled scratch. The keys are frozen, moved, updated,
	// dead and (the upper half) absent ones, so both tables and the
	// overlay are asked.
	keys := make([]uint64, 1024)
	for j := range keys {
		keys[j] = key(uint64(j) * n / 512)
	}
	out, ok := make([]uint64, len(keys)), make([]bool, len(keys))
	read := func() { e.GetBatch(keys, out, ok) }
	read() // warm: the pools
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Errorf("GetBatch mid-resize: %v allocations per call, want 0", allocs)
	}
	if e.Stats().Migrating != 1 {
		t.Fatal("the resize ended under the reads")
	}
}

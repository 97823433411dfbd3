package slab

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestAllocZeroed(t *testing.T) {
	a := New(4)
	for i := 0; i < 20; i++ {
		e := a.Alloc()
		if e.Key != 0 || e.Val != 0 || e.Next != nil {
			t.Fatalf("alloc %d returned dirty entry %+v", i, *e)
		}
		e.Key, e.Val = uint64(i), uint64(i)
	}
	if a.Live() != 20 {
		t.Fatalf("Live = %d, want 20", a.Live())
	}
	if a.Chunks() != 5 {
		t.Fatalf("Chunks = %d, want 5 with chunk size 4", a.Chunks())
	}
}

func TestFreeListReuse(t *testing.T) {
	a := New(8)
	e1 := a.Alloc()
	e1.Key = 1
	a.Free(e1)
	e2 := a.Alloc()
	if e2 != e1 {
		t.Fatal("freed entry was not recycled first")
	}
	if e2.Key != 0 || e2.Next != nil {
		t.Fatalf("recycled entry not zeroed: %+v", *e2)
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
}

func TestFootprint(t *testing.T) {
	a := New(100)
	if a.FootprintBytes() != 0 {
		t.Fatalf("empty allocator footprint = %d", a.FootprintBytes())
	}
	a.Alloc()
	if got, want := a.FootprintBytes(), uint64(100*EntrySize); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
	for i := 0; i < 100; i++ { // forces a second chunk
		a.Alloc()
	}
	if got, want := a.FootprintBytes(), uint64(200*EntrySize); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
}

func TestReset(t *testing.T) {
	a := New(16)
	for i := 0; i < 100; i++ {
		a.Alloc()
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after reset = %d", a.Live())
	}
	if a.Chunks() != 1 {
		t.Fatalf("Reset retained %d chunks, want 1", a.Chunks())
	}
	e := a.Alloc()
	if e.Key != 0 || e.Next != nil {
		t.Fatalf("post-reset alloc returned dirty entry %+v", *e)
	}
}

func TestDefaultChunkSize(t *testing.T) {
	a := New(0)
	if a.chunkEntries != DefaultChunkEntries {
		t.Fatalf("chunkEntries = %d, want default %d", a.chunkEntries, DefaultChunkEntries)
	}
	a = New(-5)
	if a.chunkEntries != DefaultChunkEntries {
		t.Fatalf("negative chunk size not defaulted: %d", a.chunkEntries)
	}
}

// TestChurnNoDuplicates property-tests the free list: the set of live
// entries handed out must always be distinct pointers.
func TestChurnNoDuplicates(t *testing.T) {
	prop := func(seed uint64) bool {
		a := New(8)
		rng := prng.NewXoshiro256(seed)
		live := map[*Entry]bool{}
		for i := 0; i < 500; i++ {
			if rng.Uint64n(3) == 0 && len(live) > 0 {
				for e := range live {
					delete(live, e)
					a.Free(e)
					break
				}
				continue
			}
			e := a.Alloc()
			if live[e] {
				return false // double-handed-out pointer
			}
			live[e] = true
		}
		return a.Live() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

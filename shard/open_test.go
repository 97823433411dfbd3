package shard_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/shard"
	"repro/table"
)

// Capacities on either side of shard.New's parallel-open cut-off (2^16
// slots a shard) for a four-shard engine.
const (
	openShards   = 4
	openParallel = openShards << 16
	openSerial   = openShards << 10
)

// openFactory is a NewTable that remembers the seed each table was made
// with and how many goroutines the process had while making it.
type openFactory struct {
	mu         sync.Mutex
	seeds      map[shard.Table]uint64
	goroutines int
}

func (f *openFactory) new(capacity int, seed uint64) (shard.Table, error) {
	t, err := table.New(table.SchemeLP, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seeds == nil {
		f.seeds = map[shard.Table]uint64{}
	}
	f.seeds[t] = seed
	f.goroutines = max(f.goroutines, runtime.NumGoroutine())
	return t, err
}

// perShard returns the seed of each shard's table, by shard index.
func (f *openFactory) perShard(e *shard.Engine) []uint64 {
	seeds := make([]uint64, e.Shards())
	e.ForEachTable(func(i int, t shard.Table) { seeds[i] = f.seeds[t] })
	return seeds
}

// TestNewParallelOpenMatchesSerial: above the cut-off the shards' tables
// are allocated as pool tasks, below it on the caller's goroutine, and the
// engine that comes out is the same one — shard count, seeds by shard, capacity,
// and it works. Run under -race this is also the check that the tasks
// share nothing but their own slots of the table list.
func TestNewParallelOpenMatchesSerial(t *testing.T) {
	var engines [2]*shard.Engine
	var factories [2]openFactory
	before := runtime.NumGoroutine()
	for i, capacity := range []int{openSerial, openParallel} {
		e, err := shard.New(shard.Config{Shards: openShards, Capacity: capacity, GrowAt: 0.85, Seed: 42, NewTable: factories[i].new})
		if err != nil {
			t.Fatal(err)
		}
		if e.Capacity() != capacity {
			t.Fatalf("capacity %d, want %d", e.Capacity(), capacity)
		}
		engines[i] = e
	}
	// A goroutine left over from an earlier test may end while this one
	// runs, so the count can fall; only a pool makes it rise.
	if factories[0].goroutines > before {
		t.Errorf("opening %d-slot shards ran NewTable beside %d goroutines, %d before New: a pool below the cut-off",
			openSerial/openShards, factories[0].goroutines, before)
	}
	if engines[0].Shards() != engines[1].Shards() {
		t.Fatalf("%d shards serial, %d parallel", engines[0].Shards(), engines[1].Shards())
	}
	serial, parallel := factories[0].perShard(engines[0]), factories[1].perShard(engines[1])
	for i := range serial {
		if serial[i] != parallel[i] || serial[i] == 0 {
			t.Fatalf("shard %d: seed %#x opened serially, %#x in parallel", i, serial[i], parallel[i])
		}
	}
	e := engines[1]
	for k := uint64(0); k < 10_000; k++ {
		if _, err := tryPut(e, k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 10_000; k++ {
		if v, ok := e.Get(k); !ok || v != k*3 {
			t.Fatalf("key %d: %d, %v", k, v, ok)
		}
	}
}

// TestNewParallelOpenRefused: one refused allocation among the tasks is
// New's error, and no engine comes back with it.
func TestNewParallelOpenRefused(t *testing.T) {
	var f openFactory
	cfg := shard.Config{Shards: openShards, Capacity: openParallel, Seed: 42, NewTable: f.new}
	good, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("no memory for this one")
	third := f.perShard(good)[2]
	cfg.NewTable = func(capacity int, seed uint64) (shard.Table, error) {
		if seed == third {
			return nil, refused
		}
		return f.new(capacity, seed)
	}
	if e, err := shard.New(cfg); e != nil || !errors.Is(err, refused) {
		t.Fatalf("factory refusing shard 2: engine %v, error %v", e, err)
	}
}

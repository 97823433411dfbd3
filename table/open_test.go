package table

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/hashfn"
)

func TestOpenDefaults(t *testing.T) {
	h, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if h.Scheme() != SchemeRH || h.HashName() != "Mult" {
		t.Fatalf("defaults = %s/%s, want RH/Mult", h.Scheme(), h.HashName())
	}
	if h.Partitions() != 1 || h.Name() != "RHMult" {
		t.Fatalf("Partitions=%d Name=%s", h.Partitions(), h.Name())
	}
	// Default handle grows: a million inserts must not error.
	for k := uint64(1); k <= 100_000; k++ {
		if _, err := h.Put(k, k); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if h.Len() != 100_000 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestOpenOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"maxLF>=1", []Option{WithMaxLoadFactor(1.0)}, "never trigger growth"},
		{"maxLF>1", []Option{WithMaxLoadFactor(1.5)}, "never trigger growth"},
		{"maxLF<0", []Option{WithMaxLoadFactor(-0.3)}, "negative"},
		// NaN fails every comparison, so only a check written to accept
		// the valid range rejects it; a NaN threshold grows on every Put.
		{"maxLF NaN", []Option{WithMaxLoadFactor(math.NaN())}, "never trigger growth"},
		{"maxLF NaN, striped", []Option{WithMaxLoadFactor(math.NaN()), WithPartitions(4)}, "never trigger growth"},
		{"negative capacity", []Option{WithCapacity(-1)}, "negative capacity"},
		// A slot array no address space holds is an error, not a
		// makeslice panic, single or striped.
		{"capacity past the address space", []Option{WithCapacity(maxCapacity + 1)}, "exceeds"},
		{"capacity 2^62, striped", []Option{WithCapacity(1 << 62), WithPartitions(4)}, "exceeds"},
		{"capacity MaxInt", []Option{WithCapacity(math.MaxInt)}, "exceeds"},
		{"negative partitions", []Option{WithPartitions(-2)}, "negative partition"},
		{"nil family", []Option{WithHashFamily(nil)}, "nil hash family"},
		{"unknown scheme", []Option{WithScheme("bogus")}, "unknown scheme"},
		{"scheme+workload", []Option{WithScheme(SchemeLP), WithWorkload(Workload{LoadFactor: 0.5})}, "mutually exclusive"},
		{"bad workload", []Option{WithWorkload(Workload{LoadFactor: 2})}, "load factor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// Explicit growth-disable is valid, not an error.
	if _, err := Open(WithMaxLoadFactor(0)); err != nil {
		t.Fatalf("WithMaxLoadFactor(0): %v", err)
	}
}

// TestOpenPartitionsNeverOneShard: WithPartitions(n ≤ 1) opens a single
// table with no engine, and a larger n an engine of the next power of two
// shards, so a partitioned handle never has a one-shard engine.
func TestOpenPartitionsNeverOneShard(t *testing.T) {
	for _, c := range []struct{ n, shards int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}} {
		h, err := Open(WithPartitions(c.n))
		if err != nil {
			t.Fatalf("WithPartitions(%d): %v", c.n, err)
		}
		if got := h.Partitions(); got != c.shards {
			t.Errorf("WithPartitions(%d): %d partitions, want %d", c.n, got, c.shards)
		}
		if eng := h.Engine(); (eng == nil) != (c.shards == 1) {
			t.Errorf("WithPartitions(%d): has an engine %t, want %t", c.n, eng != nil, c.shards > 1)
		} else if eng != nil && eng.Shards() != c.shards {
			t.Errorf("WithPartitions(%d): engine of %d shards, want %d", c.n, eng.Shards(), c.shards)
		}
	}
}

func TestOpenWithWorkload(t *testing.T) {
	cases := []struct {
		w    Workload
		want Scheme
	}{
		{Workload{LoadFactor: 0.3, UnsuccessfulPct: 10}, SchemeLP},
		{Workload{LoadFactor: 0.3, UnsuccessfulPct: 90}, SchemeChained24},
		{Workload{LoadFactor: 0.6, WriteHeavy: true, Dynamic: true}, SchemeQP},
		{Workload{LoadFactor: 0.9, UnsuccessfulPct: 25}, SchemeCuckooH4},
		{Workload{LoadFactor: 0.6, UnsuccessfulPct: 25}, SchemeRH},
	}
	for _, tc := range cases {
		h, err := Open(WithWorkload(tc.w))
		if err != nil {
			t.Fatal(err)
		}
		if h.Scheme() != tc.want {
			t.Fatalf("workload %+v -> %s, want %s", tc.w, h.Scheme(), tc.want)
		}
		if len(h.DecisionPath()) == 0 {
			t.Fatalf("workload %+v: empty decision path", tc.w)
		}
	}
}

func TestHandleErrFull(t *testing.T) {
	h := MustOpen(WithScheme(SchemeLP), WithCapacity(16), WithMaxLoadFactor(0), WithSeed(3))
	var sawFull bool
	for k := uint64(1); k <= 32; k++ {
		if _, err := h.Put(k, k); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("Put error %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("growth-disabled handle never reported ErrFull")
	}
	// Updates of present keys still succeed.
	if _, err := h.Put(1, 99); err != nil {
		t.Fatalf("update on full handle: %v", err)
	}
	if v, _ := h.Get(1); v != 99 {
		t.Fatalf("update lost: %d", v)
	}
	st := h.Stats()
	if st.Len != h.Len() || st.Capacity != 16 || st.Scheme != "LP" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHandleStripedMatchesSingle(t *testing.T) {
	single := MustOpen(WithScheme(SchemeQP), WithSeed(5))
	striped := MustOpen(WithScheme(SchemeQP), WithSeed(5), WithPartitions(8), WithCapacity(1<<12))
	if striped.Partitions() != 8 {
		t.Fatalf("Partitions = %d", striped.Partitions())
	}
	if !strings.Contains(striped.Name(), "8xQPMult") {
		t.Fatalf("Name = %s", striped.Name())
	}
	n := 20000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % 5000) // duplicates exercise last-wins ordering
		vals[i] = uint64(i)
	}
	if _, err := single.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := striped.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if single.Len() != striped.Len() {
		t.Fatalf("Len: single %d, striped %d", single.Len(), striped.Len())
	}
	// Batched lookups agree lane for lane.
	sv := make([]uint64, n)
	so := make([]bool, n)
	pv := make([]uint64, n)
	po := make([]bool, n)
	if h1, h2 := single.GetBatch(keys, sv, so), striped.GetBatch(keys, pv, po); h1 != h2 {
		t.Fatalf("GetBatch hits: %d vs %d", h1, h2)
	}
	for i := range keys {
		if sv[i] != pv[i] || so[i] != po[i] {
			t.Fatalf("lane %d: single (%d,%v) striped (%d,%v)", i, sv[i], so[i], pv[i], po[i])
		}
	}
	// GetOrPutBatch on a mix of present and absent keys agrees too.
	extra := make([]uint64, 128)
	evals := make([]uint64, 128)
	for i := range extra {
		extra[i] = uint64(4000 + i*60) // straddles present (<5000) and absent
		evals[i] = uint64(i) + 1<<32
	}
	sOut := make([]uint64, 128)
	sLd := make([]bool, 128)
	pOut := make([]uint64, 128)
	pLd := make([]bool, 128)
	i1, err1 := single.GetOrPutBatch(extra, evals, sOut, sLd)
	i2, err2 := striped.GetOrPutBatch(extra, evals, pOut, pLd)
	if err1 != nil || err2 != nil || i1 != i2 {
		t.Fatalf("GetOrPutBatch: (%d,%v) vs (%d,%v)", i1, err1, i2, err2)
	}
	for i := range extra {
		if sOut[i] != pOut[i] || sLd[i] != pLd[i] {
			t.Fatalf("GetOrPut lane %d: single (%d,%v) striped (%d,%v)", i, sOut[i], sLd[i], pOut[i], pLd[i])
		}
	}
	st := striped.Stats()
	if st.Partitions != 8 || st.Len != striped.Len() {
		t.Fatalf("striped stats = %+v", st)
	}
}

// TestStripedConcurrent hammers a partitioned handle from many goroutines;
// correctness of per-key results is checked per goroutine (disjoint key
// ranges), and the -race CI job verifies the locking.
func TestStripedConcurrent(t *testing.T) {
	h := MustOpen(WithScheme(SchemeRH), WithPartitions(8), WithCapacity(1<<14), WithSeed(1))
	const goroutines = 8
	const perG = 4000
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 32
			for i := uint64(0); i < perG; i++ {
				k := base + i
				if _, err := h.Put(k, k*2); err != nil {
					errs <- err
					return
				}
				if _, err := h.Upsert(k, func(old uint64, exists bool) uint64 {
					if !exists {
						return 1
					}
					return old + 1
				}); err != nil {
					errs <- err
					return
				}
				if v, ok := h.Get(k); !ok || v != k*2+1 {
					errs <- errors.New("lost update under concurrency")
					return
				}
				if i%3 == 0 {
					h.Delete(k)
				}
				if i%512 == 0 {
					// Observability reads must be lock-protected too.
					_ = h.LoadFactor()
					_ = h.MemoryFootprint()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := goroutines * (perG - (perG+2)/3)
	if h.Len() != want {
		t.Fatalf("Len = %d, want %d", h.Len(), want)
	}
}

func TestHandleAllAndStats(t *testing.T) {
	h := MustOpen(WithScheme(SchemeLP), WithCapacity(256), WithSeed(9), WithHashFamily(hashfn.MurmurFamily{}))
	if h.HashName() != "Murmur" {
		t.Fatalf("HashName = %s", h.HashName())
	}
	for k := uint64(0); k < 100; k++ {
		h.Put(k, k+1)
	}
	sum := uint64(0)
	for k, v := range h.All() {
		if v != k+1 {
			t.Fatalf("All yielded %d=%d", k, v)
		}
		sum += k
	}
	if sum != 99*100/2 {
		t.Fatalf("All sum = %d", sum)
	}
	st := h.Stats()
	if st.Function != "Murmur" || st.Len != 100 || st.MeanProbe < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MemoryBytes != h.MemoryFootprint() {
		t.Fatalf("stats memory %d != footprint %d", st.MemoryBytes, h.MemoryFootprint())
	}
}

// heapAfterGC returns the bytes of live heap objects after a collection.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the first may only have queued finalizers and sweeps
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestHandleDroppedMidResize(t *testing.T) {
	// There is no Close: a shard mid-resize adds no goroutine (the
	// nogoroutine analyzer's to prove), and a handle dropped in that state
	// is collected — frozen table, successor and all.
	heap := heapAfterGC()
	h := MustOpen(WithPartitions(4), WithCapacity(1<<18), WithMaxLoadFactor(0.7), WithSeed(2))
	n := uint64(0)
	for h.EngineStats().Migrating == 0 {
		n++
		if _, err := h.Put(n, n*3); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= n; k += 97 {
		if v, ok := h.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) mid-resize = (%d,%v)", k, v, ok)
		}
	}
	held := h.MemoryFootprint() // ≥ 4 MiB of shard tables, the frozen one among them
	if grew := heapAfterGC() - heap; grew < held/2 {
		t.Fatalf("heap grew %d bytes under a handle holding %d: the measurement is blind", grew, held)
	}
	runtime.KeepAlive(h) // live until here, garbage from here
	if left := int64(heapAfterGC() - heap); left > int64(held/16) {
		t.Fatalf("%d bytes still live after dropping a mid-resize handle that held %d", left, held)
	}
}

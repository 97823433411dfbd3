package partition

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/table"
)

func newTest(p int, scheme table.Scheme) *Partitioned {
	return MustNew(Config{
		Partitions: p,
		Scheme:     scheme,
		Table: table.Config{
			InitialCapacity: 1 << 12,
			MaxLoadFactor:   0.8,
			Seed:            7,
		},
	})
}

func TestPartitionedBasics(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16} {
		m := newTest(p, table.SchemeRH)
		if m.Partitions() != p {
			t.Fatalf("Partitions = %d, want %d", m.Partitions(), p)
		}
		for i := uint64(1); i <= 5000; i++ {
			if !m.Put(i, i*2) {
				t.Fatalf("Put(%d) reported update", i)
			}
		}
		if m.Len() != 5000 {
			t.Fatalf("Len = %d", m.Len())
		}
		for i := uint64(1); i <= 5000; i++ {
			if v, ok := m.Get(i); !ok || v != i*2 {
				t.Fatalf("Get(%d) = %d,%v", i, v, ok)
			}
		}
		for i := uint64(1); i <= 2500; i++ {
			if !m.Delete(i) {
				t.Fatalf("Delete(%d) failed", i)
			}
		}
		if m.Len() != 2500 {
			t.Fatalf("Len after deletes = %d", m.Len())
		}
		count := 0
		m.Range(func(k, v uint64) bool { count++; return true })
		if count != 2500 {
			t.Fatalf("Range visited %d", count)
		}
		if m.MemoryFootprint() == 0 || m.Capacity() == 0 {
			t.Fatal("degenerate accounting")
		}
	}
}

func TestPartitionRoutingStable(t *testing.T) {
	m := newTest(8, table.SchemeLP)
	for i := uint64(0); i < 10000; i++ {
		a, b := m.Partition(i), m.Partition(i)
		if a != b || a < 0 || a >= 8 {
			t.Fatalf("Partition(%d) unstable or out of range: %d, %d", i, a, b)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	m := newTest(8, table.SchemeLP)
	rng := prng.NewXoshiro256(1)
	for i := 0; i < 80000; i++ {
		m.Put(rng.Next(), 1)
	}
	if skew := m.Skew(); skew > 1.1 {
		t.Fatalf("partition skew %.3f on uniform keys, want ~1", skew)
	}
}

func TestBuildAndProbeParallel(t *testing.T) {
	m := newTest(4, table.SchemeRH)
	const n = 20000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	rng := prng.NewXoshiro256(2)
	for i := range keys {
		keys[i] = rng.Next()
		vals[i] = uint64(i)
	}
	got, err := m.BuildParallel(keys, vals)
	if err != nil {
		t.Fatalf("BuildParallel: %v", err)
	}
	if got != n {
		t.Fatalf("BuildParallel inserted %d, want %d", got, n)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	// Probe: half hits, half misses.
	probes := make([]uint64, 2*n)
	copy(probes, keys)
	for i := n; i < 2*n; i++ {
		probes[i] = rng.Next()
	}
	out := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	hits, err := m.ProbeParallel(probes, out, found)
	if err != nil {
		t.Fatalf("ProbeParallel: %v", err)
	}
	if hits < n {
		t.Fatalf("ProbeParallel hits = %d, want >= %d", hits, n)
	}
	for i := 0; i < n; i++ {
		if !found[i] || out[i] != vals[i] {
			t.Fatalf("probe %d: %d,%v want %d,true", i, out[i], found[i], vals[i])
		}
	}
	// Rebuilding the same keys must report zero fresh inserts.
	got, err = m.BuildParallel(keys, vals)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if got != 0 {
		t.Fatalf("rebuild inserted %d, want 0", got)
	}
}

func TestBuildParallelValidation(t *testing.T) {
	m := newTest(2, table.SchemeLP)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.BuildParallel(make([]uint64, 3), make([]uint64, 2))
}

// TestPartitionedMatchesFlat: a partitioned map must agree with a single
// flat table on any operation sequence.
func TestPartitionedMatchesFlat(t *testing.T) {
	prop := func(ops []uint16, seed uint64) bool {
		pm := MustNew(Config{
			Partitions: 4,
			Scheme:     table.SchemeQP,
			Table:      table.Config{InitialCapacity: 256, MaxLoadFactor: 0.8, Seed: seed},
		})
		flat := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op % 512)
			switch op % 3 {
			case 0:
				pm.Put(k, uint64(i))
				flat[k] = uint64(i)
			case 1:
				_, exp := flat[k]
				if pm.Delete(k) != exp {
					return false
				}
				delete(flat, k)
			default:
				want, wantOK := flat[k]
				v, ok := pm.Get(k)
				if ok != wantOK || (ok && v != want) {
					return false
				}
			}
		}
		return pm.Len() == len(flat)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStripedConcurrent(t *testing.T) {
	m := MustNewStriped(Config{
		Partitions: 8,
		Scheme:     table.SchemeRH,
		Table:      table.Config{InitialCapacity: 1 << 10, MaxLoadFactor: 0.8, Seed: 3},
	})
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 32
			for i := uint64(1); i <= perG; i++ {
				m.Put(base|i, i)
			}
			for i := uint64(1); i <= perG; i++ {
				if v, ok := m.Get(base | i); !ok || v != i {
					t.Errorf("g%d: Get(%d) = %d,%v", g, i, v, ok)
					return
				}
			}
			for i := uint64(1); i <= perG/2; i++ {
				m.Delete(base | i)
			}
		}(g)
	}
	wg.Wait()
	if got, want := m.Len(), goroutines*perG/2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	count := 0
	m.Range(func(k, v uint64) bool { count++; return true })
	if count != m.Len() {
		t.Fatalf("Range visited %d of %d", count, m.Len())
	}
	if m.Partitions() != 8 || m.Capacity() == 0 || m.LoadFactor() <= 0 {
		t.Fatal("degenerate accounting")
	}
	if m.Name() == "" || m.MemoryFootprint() == 0 {
		t.Fatal("metadata missing")
	}
}

// TestPartitionedBatchMatchesScalar: the composite GetBatch/PutBatch —
// stable scatter into per-partition staging buffers, batched flush, and
// gather-back — is observationally identical to the scalar operations, at
// every partition count and with duplicates, sentinels, and absent probes
// in the batch.
func TestPartitionedBatchMatchesScalar(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		for _, scheme := range []table.Scheme{table.SchemeRH, table.SchemeCuckooH4} {
			batched := newTest(p, scheme)
			scalar := newTest(p, scheme)
			rng := prng.NewXoshiro256(99)
			n := 3000
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64n(2048) // narrow: duplicates across batches
				vals[i] = rng.Next()
			}
			keys[0], keys[n-1] = 0, ^uint64(0) // sentinel-valued keys
			insScalar := 0
			for i := range keys {
				if scalar.Put(keys[i], vals[i]) {
					insScalar++
				}
			}
			if ins := batched.PutBatch(keys, vals); ins != insScalar {
				t.Fatalf("p=%d %s: PutBatch inserted %d, scalar %d", p, scheme, ins, insScalar)
			}
			if batched.Len() != scalar.Len() {
				t.Fatalf("p=%d %s: Len %d != %d", p, scheme, batched.Len(), scalar.Len())
			}
			probes := append(append([]uint64{}, keys...), 1<<40, 1<<41, 1<<42)
			outV := make([]uint64, len(probes))
			outOK := make([]bool, len(probes))
			hits := batched.GetBatch(probes, outV, outOK)
			wantHits := 0
			for i, pk := range probes {
				wantV, wantOK := scalar.Get(pk)
				if outOK[i] != wantOK || (wantOK && outV[i] != wantV) {
					t.Fatalf("p=%d %s: probe %d batched %d,%v scalar %d,%v",
						p, scheme, i, outV[i], outOK[i], wantV, wantOK)
				}
				if wantOK {
					wantHits++
				}
			}
			if hits != wantHits {
				t.Fatalf("p=%d %s: GetBatch hits %d, want %d", p, scheme, hits, wantHits)
			}
		}
	}
}

// TestPartitionedBatchScratchReuse: back-to-back batched operations of
// different sizes reuse the scratch without corrupting results.
func TestPartitionedBatchScratchReuse(t *testing.T) {
	m := newTest(4, table.SchemeLP)
	for round, n := range []int{2000, 64, 700, 1} {
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(round)<<32 | uint64(i)
			vals[i] = uint64(round*10 + i)
		}
		if ins := m.PutBatch(keys, vals); ins != n {
			t.Fatalf("round %d: inserted %d, want %d", round, ins, n)
		}
		outV := make([]uint64, n)
		outOK := make([]bool, n)
		if hits := m.GetBatch(keys, outV, outOK); hits != n {
			t.Fatalf("round %d: hits %d, want %d", round, hits, n)
		}
		for i := range keys {
			if !outOK[i] || outV[i] != vals[i] {
				t.Fatalf("round %d lane %d: got %d,%v", round, i, outV[i], outOK[i])
			}
		}
	}
}

// TestPartitionedRangeFrom: the partition-major resumable walk delivers
// Range's entries in Range's order, each once, whatever the stops — over
// open-addressing partitions and over chained ones, which hand fn the
// rest of a chain after it returned false.
func TestPartitionedRangeFrom(t *testing.T) {
	for _, scheme := range []table.Scheme{table.SchemeRH, table.SchemeChained24, table.SchemeCuckooH4} {
		m := newTest(4, scheme)
		m.Put(0, 1)
		m.Put(^uint64(0), 2)
		for i := uint64(1); i <= 700; i++ {
			m.Put(i*0x9e3779b97f4a7c15, i)
		}
		type entry struct{ k, v uint64 }
		var want []entry
		m.Range(func(k, v uint64) bool { want = append(want, entry{k, v}); return true })
		for _, budget := range []int{1, 3, 64, 1 << 20} {
			var got []entry
			for pos, calls := 0, 0; ; calls++ {
				n := 0
				pos = m.RangeFrom(pos, func(k, v uint64) bool {
					got = append(got, entry{k, v})
					n++
					return n < budget
				})
				if n < budget {
					break
				}
				if calls > len(want) {
					t.Fatalf("%s: walk at budget %d does not end", scheme, budget)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: walk at budget %d delivered %d entries, Range %d", scheme, budget, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: walk at budget %d diverges from Range at entry %d", scheme, budget, i)
				}
			}
		}
	}
}

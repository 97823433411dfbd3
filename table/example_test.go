package table_test

import (
	"fmt"
	"log"
	"slices"

	"repro/dist"
	"repro/table"
)

// Open a table through the workload-aware façade, then insert, look up,
// upsert, delete, iterate and read the stats. One API serves any ⟨scheme,
// hash function⟩ combination.
func ExampleOpen() {
	// A Robin Hood table with multiply-shift hashing — the paper's
	// all-rounder — growing at 85% occupancy. All but the seed are Open's
	// defaults; the options spell them out.
	m, err := table.Open(
		table.WithScheme(table.SchemeRH),
		table.WithCapacity(1<<10),
		table.WithMaxLoadFactor(0.85),
		table.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}
	const n = 10_000
	for i := uint64(1); i <= n; i++ {
		if _, err := m.Put(i, i*i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%s: %d entries in %d slots (load factor %.2f)\n",
		m.Name(), m.Len(), m.Capacity(), m.LoadFactor())

	// Point lookups: a present key and one never inserted.
	fmt.Println(m.Get(1234))
	fmt.Println(m.Get(n + 1))

	// Single-probe read-modify-write: GetOrPut finds or inserts in one
	// probe sequence, Upsert folds a function over the stored value.
	v, loaded, err := m.GetOrPut(7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GetOrPut(7):", v, loaded)
	if v, err = m.Upsert(7, func(old uint64, exists bool) uint64 { return old + 1 }); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Upsert(7):", v)
	fmt.Println("Delete(7):", m.Delete(7), m.Len())

	// Iteration order is unspecified; the sum is not.
	var sum uint64
	for k := range m.All() {
		sum += k
	}
	fmt.Println("sum of keys:", sum)

	st := m.Stats()
	fmt.Printf("mean probe %.2f, max probe %d, rehashes %d\n", st.MeanProbe, st.MaxProbe, st.Rehashes)

	// Every scheme in the paper is one option away.
	for _, s := range table.Schemes() {
		alt := table.MustOpen(table.WithScheme(s), table.WithCapacity(64))
		if _, err := alt.Put(1, 2); err != nil {
			log.Fatal(err)
		}
		got, ok := alt.Get(1)
		fmt.Printf("%-10s Get(1) = %d %v, %d slots in %.1f KiB\n",
			alt.Scheme(), got, ok, alt.Capacity(), float64(alt.MemoryFootprint())/1024)
	}

	// Striped across partitions, a handle serves any number of goroutines.
	c := table.MustOpen(table.WithPartitions(8))
	fmt.Println(c.Name())
	// Output:
	// RHMult: 10000 entries in 16384 slots (load factor 0.61)
	// 1522756 true
	// 0 false
	// GetOrPut(7): 49 true
	// Upsert(7): 50
	// Delete(7): true 9999
	// sum of keys: 50004993
	// mean probe 1.12, max probe 2, rehashes 4
	// ChainedH8  Get(1) = 2 true, 64 slots in 6.5 KiB
	// ChainedH24 Get(1) = 2 true, 64 slots in 1.5 KiB
	// LP         Get(1) = 2 true, 64 slots in 1.0 KiB
	// QP         Get(1) = 2 true, 64 slots in 1.0 KiB
	// RH         Get(1) = 2 true, 64 slots in 1.0 KiB
	// CuckooH4   Get(1) = 2 true, 64 slots in 1.0 KiB
	// Striped[8xRHMult]
}

// Let Figure 8 pick the table for a point-query index over grid-distributed
// keys (the paper's "think of IP addresses" distribution), then check the
// choice's answers against the alternatives'.
func ExampleWithWorkload() {
	// Memory is tight, so the index runs 90% full at a fixed capacity,
	// and 30% of the probed addresses are unknown.
	w := table.Workload{LoadFactor: 0.9, UnsuccessfulPct: 30}
	const capacity = 1 << 12
	n := capacity * 9 / 10
	miss := n * w.UnsuccessfulPct / 100

	gen := dist.New(dist.Grid, 2024)
	keys := gen.Keys(n)
	probes := append(slices.Clone(keys[:n-miss]), gen.AbsentKeys(n, miss)...)

	// hits builds one index over the keys and counts the probes it finds.
	hits := func(opts ...table.Option) (*table.Handle, int) {
		opts = append(opts, table.WithCapacity(capacity), table.WithMaxLoadFactor(0), table.WithSeed(11))
		m := table.MustOpen(opts...)
		for i, k := range keys {
			if _, err := m.Put(k, uint64(i)); err != nil {
				log.Fatal(err)
			}
		}
		found := 0
		for _, k := range probes {
			if _, ok := m.Get(k); ok {
				found++
			}
		}
		return m, found
	}

	m, found := hits(table.WithWorkload(w))
	fmt.Printf("%s: %d of %d probes hit\n", m.Name(), found, len(probes))
	for i, step := range m.DecisionPath() {
		fmt.Printf("  %d. %s\n", i+1, step)
	}
	for _, s := range []table.Scheme{table.SchemeLP, table.SchemeQP, table.SchemeRH} {
		m, found := hits(table.WithScheme(s))
		fmt.Printf("%s: %d hits\n", m.Name(), found)
	}
	// Output:
	// CuckooH4Mult: 2581 of 3686 probes hit
	//   1. load factor 90% >= 50%
	//   2. reads >= writes
	//   3. lookups mostly successful (30% unsuccessful <= 50%)
	//   4. table very full (load factor >= 80%) -> CH4Mult (surpasses probing schemes from ~80%, §5.2)
	// LPMult: 2581 hits
	// QPMult: 2581 hits
	// RHMult: 2581 hits
}

// Walk Figure 8 for a read-mostly index that runs 90% full with a quarter
// of its lookups missing. The scheme comes with the path of decisions that
// led there; the hash function is always Mult.
func ExampleRecommend() {
	s, path, err := table.Recommend(table.Workload{LoadFactor: 0.9, UnsuccessfulPct: 25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s)
	for i, step := range path {
		fmt.Printf("%d. %s\n", i+1, step)
	}
	// Output:
	// CuckooH4
	// 1. load factor 90% >= 50%
	// 2. reads >= writes
	// 3. lookups mostly successful (25% unsuccessful <= 50%)
	// 4. table very full (load factor >= 80%) -> CH4Mult (surpasses probing schemes from ~80%, §5.2)
}

// Micro-benchmarks of every ⟨scheme, hash function⟩ combination: single
// operations (BenchmarkPut, BenchmarkLookupHit, ...) measured the
// conventional testing.B way, the right tool for comparing
// scheme/function inner-loop costs, plus the batched, layout, join and
// aggregation comparisons below.
//
// The paper's figures are not benchmarks here: `go run ./cmd/hashbench
// -experiment all` regenerates every one through the bench package.
package repro_test

import (
	"fmt"
	"testing"

	"repro/agg"
	"repro/bench"
	"repro/dist"
	"repro/exec"
	"repro/hashfn"
	"repro/internal/prng"
	"repro/internal/slab"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// ---------------------------------------------------------------------------
// Micro-benchmarks: single operations per scheme and function
// ---------------------------------------------------------------------------

// microSchemes is every scheme the micro-benchmarks sweep — the full
// registry, including the LPSoA layout variant.
var microSchemes = table.AllSchemes()

var microFamilies = []hashfn.Family{hashfn.MultFamily{}, hashfn.MurmurFamily{}}

// BenchmarkPut measures growing inserts of sparse keys.
func BenchmarkPut(b *testing.B) {
	for _, s := range microSchemes {
		for _, f := range microFamilies {
			b.Run(string(s)+"/"+f.Name(), func(b *testing.B) {
				gen := dist.New(dist.Sparse, 1)
				keys := gen.Keys(b.N)
				m, err := table.New(s, table.Config{
					InitialCapacity: 1 << 10,
					MaxLoadFactor:   0.7,
					Family:          f,
					Seed:            42,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.RMW(keys[i], uint64(i), true, nil)
				}
			})
		}
	}
}

// lookupBench builds a 70%-full fixed table and probes it with the given
// hit ratio.
func lookupBench(b *testing.B, s table.Scheme, f hashfn.Family, unsuccessfulPct int) {
	const capacity = 1 << 16
	n := capacity * 7 / 10
	m, err := bench.NewWORMTable(s, f, capacity, 0.7, 42)
	if err != nil {
		b.Fatal(err)
	}
	gen := dist.New(dist.Sparse, 1)
	keys := dist.Shuffled(gen.Keys(n), 2)
	for i, k := range keys {
		if _, _, err := m.RMW(k, uint64(i), true, nil); err != nil {
			b.Fatal(err)
		}
	}
	miss := n * unsuccessfulPct / 100
	probes := make([]uint64, 0, n)
	probes = append(probes, keys[:n-miss]...)
	probes = append(probes, gen.AbsentKeys(n, miss)...)
	probes = dist.Shuffled(probes, 3)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(probes[i%len(probes)])
		sink ^= v
	}
	_ = sink
}

// BenchmarkLookupHit measures all-successful probes at 70% load factor.
func BenchmarkLookupHit(b *testing.B) {
	for _, s := range microSchemes {
		for _, f := range microFamilies {
			b.Run(string(s)+"/"+f.Name(), func(b *testing.B) { lookupBench(b, s, f, 0) })
		}
	}
}

// BenchmarkLookupMiss measures all-unsuccessful probes at 70% load factor —
// linear probing's worst case and Robin Hood's showcase.
func BenchmarkLookupMiss(b *testing.B) {
	for _, s := range microSchemes {
		for _, f := range microFamilies {
			b.Run(string(s)+"/"+f.Name(), func(b *testing.B) { lookupBench(b, s, f, 100) })
		}
	}
}

// BenchmarkHashFn measures raw hash-code computation for the four families
// (§4.4: "we could observe the effect of even one more instruction per hash
// code computation").
func BenchmarkHashFn(b *testing.B) {
	for _, f := range hashfn.Families() {
		b.Run(f.Name(), func(b *testing.B) {
			fn := f.New(42)
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink ^= fn.Hash(uint64(i) * 0x9e3779b97f4a7c15)
			}
			_ = sink
		})
	}
}

// BenchmarkSlabVsNaive quantifies the §2.1 claim that slab allocation beats
// one-allocation-per-entry for chained hash tables. "build" is the WORM
// case (size known in advance, one bump-allocated arena); "churn" is the
// RW case (delete/insert pairs, where the slab free list recycles entries
// the naive variant keeps handing to the garbage collector). Go's runtime
// allocator is itself slab-like, so the paper's 10x (over C malloc/free)
// compresses here — the shape, slab >= naive, still holds.
func BenchmarkSlabVsNaive(b *testing.B) {
	b.Run("build/slab", func(b *testing.B) {
		a := slab.New(b.N)
		a.Free(a.Alloc()) // the one b.N-entry chunk is made untimed, like naive's keep
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := a.Alloc()
			e.Key = uint64(i)
		}
	})
	b.Run("build/naive", func(b *testing.B) {
		keep := make([]*slab.Entry, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := &slab.Entry{Key: uint64(i)} // one heap allocation per entry
			keep = append(keep, e)
		}
		_ = keep
	})
	b.Run("churn/slab", func(b *testing.B) {
		a := slab.New(1024)
		for i := 0; i < b.N; i++ {
			e := a.Alloc()
			e.Key = uint64(i)
			a.Free(e)
		}
	})
	b.Run("churn/naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := &slab.Entry{Key: uint64(i)}
			escapeSink = e // forces a heap allocation; garbage next iteration
		}
	})
}

// escapeSink defeats escape analysis in the naive allocation benchmarks.
var escapeSink *slab.Entry

// ---------------------------------------------------------------------------
// Batched pipeline benchmarks: scalar vs GetBatch/PutBatch
// ---------------------------------------------------------------------------

// reportNsPerKey converts a benchmark that processes table.BatchWidth keys
// per iteration into the paper-tracking ns/key metric.
func reportNsPerKey(b *testing.B) {
	reportKeyedNs(b, b.N*table.BatchWidth)
}

// reportKeyedNs reports ns/key for a benchmark that processed total keys.
func reportKeyedNs(b *testing.B, total int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/key")
}

// BenchmarkBatchProbe compares the scalar probe loop against the batched
// group-interleaved pipeline, per scheme and load factor, on an
// out-of-cache table (2^22 slots, 64 MiB AoS — past any L3, so the
// independent lane misses actually overlap) with a 75/25 hit/miss probe
// mix. An iteration of the scalar and batch64 variants processes one
// BatchWidth-key batch, so their ns/op values are directly comparable;
// batch4096 hands GetBatch a whole morsel per call, which is what pipe
// and the end-to-end benchmark do, and where Cuckoo's wider lookup chunks
// show. Compare it with the others by ns/key.
//
// Expected shape: batching wins wherever probe sequences have cache-line
// locality (LP, LPSoA, RH, the chained schemes) or bounded candidate sets
// (Cuckoo), with the largest gains on out-of-cache tables. QP at very high
// load factors can tie or lose: its triangular jumps leave the current
// cache line almost every probe, so a lane's walk is a chain of dependent
// misses, and the paper's §7 observation that vectorization only helps
// linear probing carries over to batching. The 2^22-slot tables sit on
// 2 MiB pages wherever transparent huge pages are available (see the
// table package doc), so few of those misses also pay a page walk; where
// THP is off, most of them do, at 4 KiB granularity, and batching cannot
// make the walks cheaper.
func BenchmarkBatchProbe(b *testing.B) {
	const capacity = 1 << 22
	const morsel = exec.DefaultMorselSize // a pipe morsel; the end-to-end benchmark's batch too
	gen := dist.New(dist.Sparse, 1)
	for _, s := range microSchemes {
		for _, lf := range []int{50, 90} {
			if lf > 50 && (s == table.SchemeChained8 || s == table.SchemeChained24) {
				// The §4.5 memory budget leaves chained tables a degenerate
				// directory at high load factors; the paper drops those
				// points and so do we.
				continue
			}
			n := capacity * lf / 100
			m, err := bench.NewWORMTable(s, hashfn.MultFamily{}, capacity, float64(lf)/100, 42)
			if err != nil {
				b.Fatal(err)
			}
			keys := dist.Shuffled(gen.Keys(n), 2)
			if _, err := m.RMWBatch(keys, keys, nil, nil, true, nil); err != nil {
				b.Fatal(err)
			}
			miss := n / 4
			probes := make([]uint64, 0, n)
			probes = append(probes, keys[:n-miss]...)
			probes = append(probes, gen.AbsentKeys(n, miss)...)
			probes = dist.Shuffled(probes, 3)
			vals := make([]uint64, morsel)
			oks := make([]bool, morsel)
			name := fmt.Sprintf("%s/lf%d", s, lf)
			b.Run(name+"/scalar", func(b *testing.B) {
				var sink uint64
				pos := 0
				for i := 0; i < b.N; i++ {
					if pos+table.BatchWidth > len(probes) {
						pos = 0
					}
					for _, k := range probes[pos : pos+table.BatchWidth] {
						v, _ := m.Get(k)
						sink ^= v
					}
					pos += table.BatchWidth
				}
				_ = sink
				reportNsPerKey(b)
			})
			for _, width := range []int{table.BatchWidth, morsel} {
				b.Run(fmt.Sprintf("%s/batch%d", name, width), func(b *testing.B) {
					pos := 0
					for i := 0; i < b.N; i++ {
						if pos+width > len(probes) {
							pos = 0
						}
						m.GetBatch(probes[pos:pos+width], vals, oks)
						pos += width
					}
					reportKeyedNs(b, b.N*width)
				})
			}
		}
	}
}

// BenchmarkBatchInsert compares scalar and batched WORM builds per scheme:
// each iteration bulk-loads a fresh pre-allocated table to 70% load factor.
// At 2^16 slots the whole table sits in L2, so the sweep over every scheme
// measures instruction cost only; the two cores whose batch mutations open
// their chunks with a touch pass of their own (Chained24's inline keys,
// CuckooH4's candidate slots) also get an out-of-cache case at 2^22 slots,
// where a build-side touch can show.
func BenchmarkBatchInsert(b *testing.B) {
	gen := dist.New(dist.Sparse, 1)
	run := func(s table.Scheme, logSlots int) {
		capacity := 1 << logSlots
		n := capacity * 7 / 10
		keys := dist.Shuffled(gen.Keys(n), 2)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i)
		}
		fresh := func(b *testing.B) table.Table {
			m, err := bench.NewWORMTable(s, hashfn.MultFamily{}, capacity, 0.7, 42)
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		name := string(s)
		if logSlots != 16 {
			name = fmt.Sprintf("%s/slots2^%d", s, logSlots)
		}
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := fresh(b)
				b.StartTimer()
				for j, k := range keys {
					if _, _, err := m.RMW(k, vals[j], true, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportKeyedNs(b, b.N*n)
		})
		b.Run(fmt.Sprintf("%s/batch%d", name, table.BatchWidth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := fresh(b)
				b.StartTimer()
				if _, err := m.RMWBatch(keys, vals, nil, nil, true, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportKeyedNs(b, b.N*n)
		})
	}
	for _, s := range microSchemes {
		run(s, 16)
	}
	for _, s := range []table.Scheme{table.SchemeChained24, table.SchemeCuckooH4} {
		run(s, 22)
	}
}

// BenchmarkHashJoin measures the classic build/probe equi-join per scheme,
// pinned through pipe.HashJoin at one worker: the paper's motivating
// query-processing use (§1).
func BenchmarkHashJoin(b *testing.B) {
	const buildN, probeN = 1 << 16, 1 << 18
	gen := dist.New(dist.Sparse, 1)
	buildKeys := gen.Keys(buildN)
	build := make(join.Relation, buildN)
	for i, k := range buildKeys {
		build[i] = join.Row{Key: k, Payload: uint64(i)}
	}
	rng := prng.NewXoshiro256(2)
	probe := make(join.Relation, probeN)
	for i := range probe {
		if rng.Uint64n(10) == 0 { // 10% dangling foreign keys
			probe[i] = join.Row{Key: gen.Key(uint64(buildN) + rng.Uint64n(1<<20)), Payload: uint64(i)}
		} else {
			probe[i] = join.Row{Key: buildKeys[rng.Intn(buildN)], Payload: uint64(i)}
		}
	}
	for _, s := range []table.Scheme{table.SchemeLP, table.SchemeRH, table.SchemeCuckooH4, table.SchemeChained24} {
		b.Run(string(s), func(b *testing.B) {
			j := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe), pipe.JoinConfig{Scheme: s, Seed: 42})
			for i := 0; i < b.N; i++ {
				n, err := j.Count(pipe.Config{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkAggregateVsWORM reproduces the paper's §4 equivalence claim:
// aggregation throughput tracks the WORM numbers, because a GROUP BY over G
// groups is G inserts followed by (rows-G) successful lookups — which is
// literally how agg.GroupBy.AddBatch runs one (a GetBatch lookup phase, an
// UpsertBatch tail for the rows that open a group). The two sub-benchmarks
// run the same table at the same load factor, row at a time; their ns/op
// should be of the same order.
func BenchmarkAggregateVsWORM(b *testing.B) {
	const groups = 1 << 14
	rng := prng.NewXoshiro256(3)
	b.Run("aggregate", func(b *testing.B) {
		g := agg.MustNewGroupBy(agg.Config{ExpectedGroups: groups, Seed: 42})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Add(rng.Uint64n(groups), uint64(i))
		}
	})
	b.Run("worm-lookup", func(b *testing.B) {
		m, err := table.New(table.SchemeQP, table.Config{InitialCapacity: groups * 2, MaxLoadFactor: 0.7, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for i := uint64(0); i < groups; i++ {
			m.RMW(i, i, true, nil)
		}
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := m.Get(rng.Uint64n(groups))
			sink ^= v
		}
		_ = sink
	})
}

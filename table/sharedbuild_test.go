package table

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/prng"
)

// sharedSchemes are the schemes whose fixed single table takes
// PutIfAbsentBatch from several goroutines at once.
func sharedSchemes(t *testing.T) []Scheme {
	var out []Scheme
	for _, s := range AllSchemes() {
		if s.SharedBuild() {
			out = append(out, s)
		}
	}
	want := []Scheme{SchemeLP, SchemeLPSoA, SchemeQP, SchemeDH}
	if fmt.Sprint(out) != fmt.Sprint(want) {
		t.Fatalf("SharedBuild holds for %v, want %v: the kernel schemes that never displace", out, want)
	}
	return out
}

// offer is what one goroutine of a shared build hands PutIfAbsentBatch.
type offer struct{ keys, vals []uint64 }

// payload tags a key's payload with the goroutine offering it, so a stored
// value says who won and cannot be anybody's but an offerer's.
func payload(key uint64, g int) uint64 { return key<<4 | uint64(g) }

// buildShared runs one PutIfAbsentBatch call per offer, each on a goroutine
// of its own, cut into calls of step rows; the WaitGroup is the barrier the
// contract asks for. It returns the inserted counts' sum and the calls' errors.
func buildShared(h *Handle, offers []offer, step int) (inserted int, errs []error) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, o := range offers {
		wg.Add(1)
		go func(o offer) {
			defer wg.Done()
			for lo := 0; lo < len(o.keys); lo += step {
				hi := min(lo+step, len(o.keys))
				n, err := h.PutIfAbsentBatch(o.keys[lo:hi], o.vals[lo:hi])
				mu.Lock()
				inserted += n
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(o)
	}
	wg.Wait()
	return inserted, errs
}

// sharedCase builds the starting table's serial prefix and the goroutines'
// offers for one scenario.
type sharedCase struct {
	name   string
	prefix func(h *Handle) // serial mutations before the shared build
	offers func(goroutines int) []offer
}

func sharedCases() []sharedCase {
	rng := prng.NewSplitMix64(11)
	fresh := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Next() | 2 // never a sentinel
		}
		return keys
	}
	tagged := func(keys []uint64, g int) offer {
		o := offer{keys: keys, vals: make([]uint64, len(keys))}
		for i, k := range keys {
			o.vals[i] = payload(k, g)
		}
		return o
	}
	disjoint, common := fresh(6000), fresh(2500)
	resident := fresh(1500)
	return []sharedCase{
		{name: "disjoint", offers: func(n int) []offer {
			out := make([]offer, n)
			for g := range out {
				out[g] = tagged(disjoint[g*len(disjoint)/n:(g+1)*len(disjoint)/n], g)
			}
			return out
		}},
		// Same keys, same order, different payloads: the goroutines run into
		// each other on every slot.
		{name: "every key from everyone", offers: func(n int) []offer {
			out := make([]offer, n)
			for g := range out {
				out[g] = tagged(common, g)
			}
			return out
		}},
		{name: "sentinels from everyone", offers: func(n int) []offer {
			out := make([]offer, n)
			for g := range out {
				keys := append([]uint64{emptyKey, tombKey}, common[:200]...)
				out[g] = tagged(append(keys, tombKey, emptyKey), g)
			}
			return out
		}},
		{name: "over tombstones", prefix: func(h *Handle) {
			for _, k := range resident {
				h.Put(k, payload(k, 15))
			}
			for _, k := range resident[:700] {
				h.Delete(k)
			}
		}, offers: func(n int) []offer {
			// Deleted keys come back, resident ones stay, fresh ones arrive.
			keys := append(append([]uint64{}, resident[400:1100]...), common[:1500]...)
			out := make([]offer, n)
			for g := range out {
				out[g] = tagged(keys, g)
			}
			return out
		}},
	}
}

// TestSharedBuildEqualsSerialBuild: goroutines sharing PutIfAbsentBatch on
// one fixed table leave the table a serial GetOrPutBatch of the same rows
// leaves — the same keys, Len, LoadFactor and Stats.Len, each key holding a
// payload some goroutine offered for it (or the one it already held) — the
// inserted counts add up to what arrived, and GetBatch agrees with All.
func TestSharedBuildEqualsSerialBuild(t *testing.T) {
	for _, s := range sharedSchemes(t) {
		for _, goroutines := range []int{1, 2, 8} {
			for _, c := range sharedCases() {
				t.Run(fmt.Sprintf("%s/%d/%s", s, goroutines, c.name), func(t *testing.T) {
					open := func() *Handle {
						h := MustOpen(WithScheme(s), WithCapacity(1<<13), WithMaxLoadFactor(0), WithSeed(5))
						if c.prefix != nil {
							c.prefix(h)
						}
						return h
					}
					offers := c.offers(goroutines)
					serial, shared := open(), open()
					// key → the payloads it may end up holding: the one it had,
					// or else any that is offered for it.
					offered, resident := map[uint64]map[uint64]bool{}, map[uint64]bool{}
					for k, v := range serial.All() {
						offered[k], resident[k] = map[uint64]bool{v: true}, true
					}
					for _, o := range offers {
						if _, err := serial.GetOrPutBatch(o.keys, o.vals, make([]uint64, len(o.keys)), make([]bool, len(o.keys))); err != nil {
							t.Fatal(err)
						}
						for i, k := range o.keys {
							if resident[k] {
								continue
							}
							if offered[k] == nil {
								offered[k] = map[uint64]bool{}
							}
							offered[k][o.vals[i]] = true
						}
					}
					before := shared.Len()
					inserted, errs := buildShared(shared, offers, 700)
					if len(errs) != 0 {
						t.Fatalf("shared build failed: %v", errs)
					}
					if shared.Len() != serial.Len() || inserted != shared.Len()-before {
						t.Fatalf("Len %d after %d reported inserts over %d; the serial build has %d", shared.Len(), inserted, before, serial.Len())
					}
					if shared.LoadFactor() != serial.LoadFactor() || shared.Stats().Len != serial.Stats().Len {
						t.Fatalf("LoadFactor %v / Stats.Len %d, serial %v / %d", shared.LoadFactor(), shared.Stats().Len, serial.LoadFactor(), serial.Stats().Len)
					}
					var keys []uint64
					got := map[uint64]uint64{}
					for k, v := range shared.All() {
						if _, twice := got[k]; twice {
							t.Fatalf("key %#x is in the table twice", k)
						}
						if !offered[k][v] {
							t.Fatalf("key %#x holds %#x, which nobody offered", k, v)
						}
						got[k] = v
						keys = append(keys, k)
					}
					if len(got) != len(offered) {
						t.Fatalf("All shows %d keys, the serial build %d", len(got), len(offered))
					}
					vals, ok := make([]uint64, len(keys)), make([]bool, len(keys))
					if hits := shared.GetBatch(keys, vals, ok); hits != len(keys) {
						t.Fatalf("GetBatch finds %d of the table's %d keys", hits, len(keys))
					}
					for i, k := range keys {
						if vals[i] != got[k] {
							t.Fatalf("GetBatch(%#x) = %#x, All shows %#x", k, vals[i], got[k])
						}
					}
				})
			}
		}
	}
}

// TestSharedBuildOverfillIsErrFull: four goroutines offering a 64-slot table
// four times what it holds get ErrFull, not a spin, and never the slot an
// unbounded sequence terminates on: lookups of absent keys return, the
// counts are exact, and topping the table up serially afterwards stops at
// the fullness a serial build stops at.
func TestSharedBuildOverfillIsErrFull(t *testing.T) {
	for _, s := range sharedSchemes(t) {
		t.Run(string(s), func(t *testing.T) {
			for round := uint64(0); round < 40; round++ {
				h := MustOpen(WithScheme(s), WithCapacity(64), WithMaxLoadFactor(0), WithSeed(round))
				rng := prng.NewSplitMix64(round)
				offers := make([]offer, 4)
				for g := range offers {
					for i := 0; i < 64; i++ {
						k := rng.Next() | 2
						offers[g].keys = append(offers[g].keys, k)
						offers[g].vals = append(offers[g].vals, payload(k, g))
					}
				}
				inserted, errs := buildShared(h, offers, 64)
				if len(errs) == 0 {
					t.Fatalf("round %d: 256 keys went into 64 slots", round)
				}
				for _, err := range errs {
					if !errors.Is(err, ErrFull) {
						t.Fatalf("round %d: %v is not ErrFull", round, err)
					}
				}
				full := h.Capacity() // a permutation sequence may use every slot
				if !kernOf(t, h.ops.(Table)).bounded {
					full--
				}
				entries := 0
				for range h.All() {
					entries++
				}
				if h.Len() > full || h.Len() != entries || h.Len() != inserted {
					t.Fatalf("round %d: Len %d, %d entries, %d reported inserts, room for %d", round, h.Len(), entries, inserted, full)
				}
				absent := make([]uint64, 100)
				for i := range absent {
					absent[i] = rng.Next() | 2
				}
				if hits := h.GetBatch(absent, make([]uint64, len(absent)), make([]bool, len(absent))); hits != 0 {
					t.Fatalf("round %d: %d absent keys found", round, hits)
				}
				var err error
				for err == nil {
					_, err = h.Put(rng.Next()|2, 1)
				}
				if !errors.Is(err, ErrFull) || h.Len() != full {
					t.Fatalf("round %d: serial top-up ended at Len %d with %v, want %d and ErrFull", round, h.Len(), err, full)
				}
			}
		})
	}
}

// TestSharedBuildAllocatesNothing: a steady-state call borrows its chunk
// scratch and gives it back.
func TestSharedBuildAllocatesNothing(t *testing.T) {
	for _, s := range sharedSchemes(t) {
		h := MustOpen(WithScheme(s), WithCapacity(1<<12), WithMaxLoadFactor(0))
		o := sharedCases()[0].offers(4)[0]
		if _, err := h.PutIfAbsentBatch(o.keys, o.vals); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { h.PutIfAbsentBatch(o.keys, o.vals) }); allocs != 0 {
			t.Errorf("%s: %v allocations per call", s, allocs)
		}
	}
}

// TestPutIfAbsentBatchOnOtherHandles: where the call cannot be shared on one
// table it is GetOrPutBatch with the results dropped — single-writer on a
// growing or displacing single table, from any goroutine on a partitioned
// handle — and the fault injector refuses it like every mutation.
func TestPutIfAbsentBatchOnOtherHandles(t *testing.T) {
	o := sharedCases()[1].offers(1)[0]
	for _, s := range AllSchemes() {
		for _, opts := range [][]Option{
			{WithScheme(s)}, // growing
			{WithScheme(s), WithCapacity(1 << 13), WithMaxLoadFactor(0)},
			{WithScheme(s), WithPartitions(4)},
		} {
			h, want := MustOpen(opts...), MustOpen(opts...)
			if _, err := want.GetOrPutBatch(o.keys, o.vals, make([]uint64, len(o.keys)), make([]bool, len(o.keys))); err != nil {
				t.Fatal(err)
			}
			for range 2 { // the second pass inserts nothing and changes nothing
				if _, err := h.PutIfAbsentBatch(o.keys, o.vals); err != nil {
					t.Fatalf("%s: %v", h.Name(), err)
				}
			}
			if h.Len() != want.Len() {
				t.Fatalf("%s: Len %d, GetOrPutBatch leaves %d", h.Name(), h.Len(), want.Len())
			}
			for k, v := range want.All() {
				if got, ok := h.Get(k); !ok || got != v {
					t.Fatalf("%s: key %#x holds %#x,%v, want %#x", h.Name(), k, got, ok, v)
				}
			}
		}
	}
}

// TestHandleConcurrentGetBatch pins the read half of Handle's contract:
// with no writer about, goroutines may GetBatch one single-table handle of
// any scheme (under -race a lookup that wrote table state would be reported).
func TestHandleConcurrentGetBatch(t *testing.T) {
	rng := prng.NewSplitMix64(3)
	oracle := map[uint64]uint64{emptyKey: 7}
	probes := []uint64{emptyKey, tombKey}
	for i := 0; i < 3000; i++ {
		k := rng.Next()
		if i%3 != 0 {
			oracle[k] = k ^ 0xabcd
		}
		probes = append(probes, k)
	}
	for _, s := range AllSchemes() {
		t.Run(string(s), func(t *testing.T) {
			h := MustOpen(WithScheme(s), WithCapacity(1<<13))
			for k, v := range oracle {
				h.Put(k, v)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					vals, ok := make([]uint64, len(probes)), make([]bool, len(probes))
					for round := 0; round < 20; round++ {
						at := (g*131 + round*17) % len(probes) // each reader its own window
						keys := probes[at:]
						h.GetBatch(keys, vals, ok)
						for i, k := range keys {
							if want, present := oracle[k]; ok[i] != present || vals[i] != want {
								t.Errorf("%s: GetBatch(%#x) = %#x,%v, oracle %#x,%v", s, k, vals[i], ok[i], want, present)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// BenchmarkSharedBuild fills a 2^21-slot LP table to 1M keys: one caller's
// GetOrPutBatch beside PutIfAbsentBatch shared by GOMAXPROCS goroutines (run
// it with -cpu 1,2). Fixed work per iteration; the table's allocation is not
// timed. Read ns/row across the sub-benchmarks of one run.
func BenchmarkSharedBuild(b *testing.B) {
	const rows, step = 1_000_000, 4096
	rng := prng.NewSplitMix64(1)
	keys, vals := make([]uint64, rows), make([]uint64, rows)
	for i := range keys {
		keys[i], vals[i] = rng.Next()|2, uint64(i)
	}
	run := func(name string, goroutines int, call func(h *Handle, keys, vals []uint64)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := MustOpen(WithScheme(SchemeLP), WithCapacity(1<<21), WithMaxLoadFactor(0))
				var wg sync.WaitGroup
				b.StartTimer()
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for lo := g * step; lo < rows; lo += goroutines * step {
							hi := min(lo+step, rows)
							call(h, keys[lo:hi], vals[lo:hi])
						}
					}(g)
				}
				wg.Wait()
				if h.Len() != rows {
					b.Fatalf("built %d of %d rows", h.Len(), rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
	out, loaded := make([]uint64, step), make([]bool, step)
	run("GetOrPutBatch/callers=1", 1, func(h *Handle, keys, vals []uint64) {
		h.GetOrPutBatch(keys, vals, out[:len(keys)], loaded[:len(keys)])
	})
	run(fmt.Sprintf("PutIfAbsentBatch/callers=%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0), func(h *Handle, keys, vals []uint64) {
		h.PutIfAbsentBatch(keys, vals)
	})
}

package table

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/hashfn"
	"repro/internal/prng"
)

// allSchemes lists every scheme, including the SoA layout variant — the
// registry's AllSchemes, so a newly registered scheme is picked up by the
// whole differential/property suite automatically.
func allSchemes() []Scheme { return AllSchemes() }

func allFamilies() []hashfn.Family { return hashfn.Families() }

// mustNew is New for the schemes a test knows exist.
func mustNew(s Scheme, cfg Config) Table {
	m, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// put is tryPut on a table the test knows has room; it reports whether
// key was new.
func put(t testing.TB, m Table, key, val uint64) bool {
	t.Helper()
	ins, err := tryPut(m, key, val)
	if err != nil {
		t.Fatalf("%s: Put(%#x): %v", m.Name(), key, err)
	}
	return ins
}

// The named write forms a Handle has as methods, over a raw table's RMW
// and RMWBatch in the matching mode, and rangeAll, Range's walk: RangeFrom
// from 0, with fn called for nothing after it returned false.
func tryPut(m Table, key, val uint64) (bool, error) {
	_, existed, err := m.RMW(key, val, true, nil)
	return !existed && err == nil, err
}

func getOrPut(m Table, key, val uint64) (uint64, bool, error) {
	return m.RMW(key, val, false, nil)
}

func upsert(m Table, key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := m.RMW(key, 0, false, fn)
	return v, err
}

func putBatch(m Table, keys, vals []uint64) (int, error) {
	return m.RMWBatch(keys, vals, nil, nil, true, nil)
}

func getOrPutBatch(m Table, keys, vals, out []uint64, loaded []bool) (int, error) {
	return m.RMWBatch(keys, vals, out, loaded, false, nil)
}

func upsertBatch(m Table, keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	return m.RMWBatch(keys, nil, nil, nil, false, fn)
}

func rangeAll(m Table, fn func(key, val uint64) bool) {
	stopped := false
	m.RangeFrom(0, func(k, v uint64) bool {
		stopped = stopped || !fn(k, v)
		return !stopped
	})
}

// loadFactor is Len/Capacity.
func loadFactor(m Table) float64 { return float64(m.Len()) / float64(m.Capacity()) }

// forEachTable runs fn for each scheme under each family, with growth
// enabled at the given threshold.
func forEachTable(t *testing.T, capacity int, maxLF float64, fn func(t *testing.T, m Table)) {
	t.Helper()
	for _, s := range allSchemes() {
		for _, f := range allFamilies() {
			name := fmt.Sprintf("%s/%s", s, f.Name())
			t.Run(name, func(t *testing.T) {
				m := mustNew(s, Config{
					InitialCapacity: capacity,
					MaxLoadFactor:   maxLF,
					Family:          f,
					Seed:            0xbeef,
				})
				fn(t, m)
			})
		}
	}
}

func TestEmptyTable(t *testing.T) {
	forEachTable(t, 64, 0.9, func(t *testing.T, m Table) {
		if m.Len() != 0 {
			t.Fatalf("empty table Len = %d, want 0", m.Len())
		}
		if _, ok := m.Get(42); ok {
			t.Fatal("Get on empty table reported a hit")
		}
		if m.Delete(42) {
			t.Fatal("Delete on empty table reported success")
		}
		calls := 0
		rangeAll(m, func(k, v uint64) bool { calls++; return true })
		if calls != 0 {
			t.Fatalf("Range on empty table visited %d entries", calls)
		}
		if m.Capacity() <= 0 {
			t.Fatalf("Capacity = %d, want positive", m.Capacity())
		}
		if m.MemoryFootprint() == 0 {
			t.Fatal("MemoryFootprint = 0, want positive")
		}
	})
}

func TestPutGetDelete(t *testing.T) {
	forEachTable(t, 64, 0.9, func(t *testing.T, m Table) {
		if !put(t, m, 7, 70) {
			t.Fatal("first Put(7) reported update, want insert")
		}
		if put(t, m, 7, 71) {
			t.Fatal("second Put(7) reported insert, want update")
		}
		if v, ok := m.Get(7); !ok || v != 71 {
			t.Fatalf("Get(7) = %d,%v; want 71,true", v, ok)
		}
		if m.Len() != 1 {
			t.Fatalf("Len = %d, want 1", m.Len())
		}
		if !m.Delete(7) {
			t.Fatal("Delete(7) failed")
		}
		if m.Delete(7) {
			t.Fatal("second Delete(7) succeeded")
		}
		if _, ok := m.Get(7); ok {
			t.Fatal("Get(7) after delete reported a hit")
		}
		if m.Len() != 0 {
			t.Fatalf("Len after delete = %d, want 0", m.Len())
		}
	})
}

// TestSentinelKeys exercises the two keys whose literal values collide with
// the slot markers: 0 (empty) and 2^64-1 (tombstone).
func TestSentinelKeys(t *testing.T) {
	maxKey := ^uint64(0)
	forEachTable(t, 64, 0.9, func(t *testing.T, m Table) {
		for _, k := range []uint64{0, maxKey} {
			if !put(t, m, k, k^0xff) {
				t.Fatalf("Put(%#x) reported update", k)
			}
			if v, ok := m.Get(k); !ok || v != k^0xff {
				t.Fatalf("Get(%#x) = %d,%v", k, v, ok)
			}
		}
		if m.Len() != 2 {
			t.Fatalf("Len = %d, want 2", m.Len())
		}
		// Sentinel keys must appear in Range.
		seen := map[uint64]bool{}
		rangeAll(m, func(k, v uint64) bool { seen[k] = true; return true })
		if !seen[0] || !seen[maxKey] {
			t.Fatalf("Range missed sentinel keys: %v", seen)
		}
		// Update and delete.
		put(t, m, 0, 123)
		if v, _ := m.Get(0); v != 123 {
			t.Fatalf("Get(0) after update = %d, want 123", v)
		}
		if !m.Delete(0) || !m.Delete(maxKey) {
			t.Fatal("Delete of sentinel keys failed")
		}
		if m.Len() != 0 {
			t.Fatalf("Len = %d, want 0", m.Len())
		}
	})
}

// TestDifferentialVsBuiltinMap replays a long random operation stream
// against every table and Go's built-in map as the oracle.
func TestDifferentialVsBuiltinMap(t *testing.T) {
	const ops = 60000
	forEachTable(t, 64, 0.85, func(t *testing.T, m Table) {
		rng := prng.NewXoshiro256(0x0d1f)
		oracle := make(map[uint64]uint64)
		// Small key space forces plenty of updates, deletes of present
		// keys and lookups of absent ones.
		keySpace := uint64(8192)
		for i := 0; i < ops; i++ {
			k := rng.Uint64n(keySpace)
			switch rng.Uint64n(10) {
			case 0, 1, 2, 3: // put
				v := rng.Next()
				_, existed := oracle[k]
				inserted := put(t, m, k, v)
				if inserted == existed {
					t.Fatalf("op %d: Put(%d) inserted=%v, oracle existed=%v", i, k, inserted, existed)
				}
				oracle[k] = v
			case 4, 5: // delete
				_, existed := oracle[k]
				if deleted := m.Delete(k); deleted != existed {
					t.Fatalf("op %d: Delete(%d) = %v, oracle existed=%v", i, k, deleted, existed)
				}
				delete(oracle, k)
			default: // get
				wantV, wantOK := oracle[k]
				v, ok := m.Get(k)
				if ok != wantOK || (ok && v != wantV) {
					t.Fatalf("op %d: Get(%d) = %d,%v; want %d,%v", i, k, v, ok, wantV, wantOK)
				}
			}
			if m.Len() != len(oracle) {
				t.Fatalf("op %d: Len = %d, oracle has %d", i, m.Len(), len(oracle))
			}
		}
		// Final full sweep, both directions.
		for k, want := range oracle {
			if v, ok := m.Get(k); !ok || v != want {
				t.Fatalf("final Get(%d) = %d,%v; want %d,true", k, v, ok, want)
			}
		}
		got := make(map[uint64]uint64, m.Len())
		rangeAll(m, func(k, v uint64) bool {
			if _, dup := got[k]; dup {
				t.Fatalf("Range yielded key %d twice", k)
			}
			got[k] = v
			return true
		})
		if len(got) != len(oracle) {
			t.Fatalf("Range yielded %d entries, oracle has %d", len(got), len(oracle))
		}
		for k, v := range oracle {
			if got[k] != v {
				t.Fatalf("Range value for %d = %d, want %d", k, got[k], v)
			}
		}
	})
}

// TestGrowth fills tables far past their initial capacity.
func TestGrowth(t *testing.T) {
	const n = 20000
	forEachTable(t, 8, 0.8, func(t *testing.T, m Table) {
		for i := uint64(1); i <= n; i++ {
			put(t, m, i, i*2)
		}
		if m.Len() != n {
			t.Fatalf("Len = %d, want %d", m.Len(), n)
		}
		for i := uint64(1); i <= n; i++ {
			if v, ok := m.Get(i); !ok || v != i*2 {
				t.Fatalf("Get(%d) = %d,%v after growth", i, v, ok)
			}
		}
		if lf := loadFactor(m); lf > 0.85 {
			t.Fatalf("LoadFactor after growth = %v, want <= grow threshold", lf)
		}
	})
}

// TestFixedCapacityFill fills growth-disabled tables to 90% like the
// paper's WORM experiments.
func TestFixedCapacityFill(t *testing.T) {
	const capacity = 1 << 12
	n := capacity * 9 / 10
	for _, s := range allSchemes() {
		t.Run(string(s), func(t *testing.T) {
			cap := capacity
			if s == SchemeChained8 || s == SchemeChained24 {
				// Chained directories hold >1 entry per slot; capacity is
				// a directory size here, not a hard limit.
				cap = capacity / 2
			}
			m := mustNew(s, Config{InitialCapacity: cap, Seed: 7})
			for i := 1; i <= n; i++ {
				put(t, m, uint64(i)*2654435761, uint64(i))
			}
			if m.Len() != n {
				t.Fatalf("Len = %d, want %d", m.Len(), n)
			}
			for i := 1; i <= n; i++ {
				if v, ok := m.Get(uint64(i) * 2654435761); !ok || v != uint64(i) {
					t.Fatalf("Get key %d = %d,%v", i, v, ok)
				}
			}
		})
	}
}

// TestRangeEarlyStop checks that Handle.Range stops when fn returns false,
// on single-table and 4-partition handles of every scheme, and that All
// honours a break. On the chained schemes the walk stops at the first
// entry that has a successor in its chain, which a chained RangeFrom still
// hands its callback.
func TestRangeEarlyStop(t *testing.T) {
	for _, s := range allSchemes() {
		for _, f := range allFamilies() {
			t.Run(fmt.Sprintf("%s/%s", s, f.Name()), func(t *testing.T) {
				for _, parts := range []int{1, 4} {
					t.Run(fmt.Sprintf("%dparts", parts), func(t *testing.T) {
						h := MustOpen(WithScheme(s), WithHashFamily(f), WithPartitions(parts), WithCapacity(64), WithMaxLoadFactor(0.9), WithSeed(11))
						for i := uint64(1); i <= 24; i++ {
							if _, err := h.Put(i, i); err != nil {
								t.Fatal(err)
							}
						}
						// chainedMid holds the keys with a successor in their chain.
						chainedMid := map[uint64]bool{}
						visit := func(_ int, tb Table) {
							if c, ok := tb.(*chained); ok {
								for i := range c.Capacity() {
									for e := c.first(uint64(i)); e != nil && e.Next != nil; e = e.Next {
										chainedMid[e.Key] = true
									}
								}
							}
						}
						if h.Engine() != nil {
							h.Engine().ForEachTable(visit)
						} else {
							visit(0, h.ops.(Table))
						}
						var order []uint64
						h.Range(func(k, _ uint64) bool { order = append(order, k); return true })
						want := 5
						if s == SchemeChained8 || s == SchemeChained24 {
							want = slices.IndexFunc(order, func(k uint64) bool { return chainedMid[k] }) + 1
							if want == 0 {
								t.Fatalf("no chain of two or more among %d keys", len(order))
							}
						}
						calls := 0
						h.Range(func(k, v uint64) bool {
							calls++
							return calls < want
						})
						if calls != want {
							t.Fatalf("Range visited %d entries after early stop, want %d", calls, want)
						}
						n := 0
						for range h.All() {
							n++
							break
						}
						if n != 1 {
							t.Fatalf("All visited %d entries before a break, want 1", n)
						}
					})
				}
			})
		}
	}
}

// TestDeleteThenReinsert stresses the delete paths: QP's tombstone
// recycling and the other rows' backward shift.
func TestDeleteThenReinsert(t *testing.T) {
	forEachTable(t, 256, 0, func(t *testing.T, m Table) {
		// Growth disabled: churn within fixed capacity. 256 slots, keep
		// ~100 live while cycling through deletes and reinserts.
		rng := prng.NewXoshiro256(3)
		live := map[uint64]uint64{}
		for i := 0; i < 4000; i++ {
			k := rng.Uint64n(100) + 1
			if _, ok := live[k]; ok {
				if !m.Delete(k) {
					t.Fatalf("op %d: Delete(%d) failed", i, k)
				}
				delete(live, k)
			} else {
				v := rng.Next()
				put(t, m, k, v)
				live[k] = v
			}
			if m.Len() != len(live) {
				t.Fatalf("op %d: Len=%d want %d", i, m.Len(), len(live))
			}
		}
		for k, v := range live {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("Get(%d) = %d,%v; want %d,true", k, got, ok, v)
			}
		}
	})
}

// TestRegistryDrift pins the registry's advertised scheme lists against
// each other, so a newly registered scheme cannot silently drop out of a
// list again (as LPSoA once did from Schemes and openAddressingSchemes).
func TestRegistryDrift(t *testing.T) {
	all := AllSchemes()
	if len(all) != 7 {
		t.Fatalf("AllSchemes lists %d schemes, want 7: %v", len(all), all)
	}
	in := func(list []Scheme, s Scheme) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	// Every scheme in every list constructs, with a matching Name.
	for _, s := range all {
		m, err := New(s, Config{InitialCapacity: 64})
		if err != nil {
			t.Fatalf("New(%s): %v", s, err)
		}
		if m.Name() != string(s) {
			t.Errorf("New(%s).Name() = %s", s, m.Name())
		}
	}
	// Schemes is the paper's six; it must omit only the layout variant.
	if len(Schemes()) != 6 {
		t.Fatalf("Schemes lists %d schemes, want the paper's 6", len(Schemes()))
	}
	for _, s := range Schemes() {
		if !in(all, s) {
			t.Errorf("Schemes lists %s but AllSchemes does not", s)
		}
		if s == SchemeLPSoA {
			t.Errorf("Schemes must not list the layout variant %s", s)
		}
	}
	// openAddressingSchemes = AllSchemes minus the chained variants.
	oa := openAddressingSchemes()
	if len(oa) != len(all)-2 {
		t.Fatalf("openAddressingSchemes lists %d schemes, want %d", len(oa), len(all)-2)
	}
	for _, s := range []Scheme{SchemeLPSoA, SchemeLP, SchemeQP, SchemeRH, SchemeCuckooH4} {
		if !in(oa, s) {
			t.Errorf("openAddressingSchemes omits %s", s)
		}
	}
	// KernelSchemes = the kernel instantiations: open addressing minus
	// Cuckoo.
	ks := KernelSchemes()
	if len(ks) != len(oa)-1 {
		t.Fatalf("KernelSchemes lists %d schemes, want %d", len(ks), len(oa)-1)
	}
	for _, s := range ks {
		if !in(oa, s) || s == SchemeCuckooH4 {
			t.Errorf("KernelSchemes lists %s unexpectedly", s)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, s := range Schemes() {
		m, err := New(s, Config{InitialCapacity: 64})
		if err != nil {
			t.Fatalf("New(%s): %v", s, err)
		}
		if m.Name() != string(s) {
			t.Errorf("New(%s).Name() = %s", s, m.Name())
		}
	}
	if _, err := New("bogus", Config{}); err == nil {
		t.Fatal("New(bogus) succeeded, want error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.InitialCapacity != 8 {
		t.Errorf("default capacity = %d, want 8", c.InitialCapacity)
	}
	if c.Family == nil || c.Family.Name() != "Mult" {
		t.Errorf("default family = %v, want Mult", c.Family)
	}
	c = Config{InitialCapacity: 1000}.withDefaults()
	if c.InitialCapacity != 1024 {
		t.Errorf("capacity 1000 rounded to %d, want 1024", c.InitialCapacity)
	}
}

// TestNewRejectsWhatOpenRejects: a growth threshold outside [0, 1) is an
// error from New, with Open's text, not a table that silently never grows;
// a threshold inside it still grows the table.
func TestNewRejectsWhatOpenRejects(t *testing.T) {
	for _, lf := range []float64{1, 1.5, -0.5, math.NaN()} {
		_, newErr := New(SchemeChained8, Config{MaxLoadFactor: lf})
		_, openErr := Open(WithScheme(SchemeChained8), WithMaxLoadFactor(lf))
		if newErr == nil || openErr == nil {
			t.Fatalf("MaxLoadFactor %v: New error %v, Open error %v; want both to refuse", lf, newErr, openErr)
		}
		if newErr.Error() != openErr.Error() {
			t.Errorf("MaxLoadFactor %v: New says %q, Open says %q", lf, newErr, openErr)
		}
	}
	m := mustNew(SchemeLP, Config{InitialCapacity: 64, MaxLoadFactor: 0.5, Seed: 1})
	for k := uint64(1); k <= 64; k++ {
		if _, err := tryPut(m, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if m.Capacity() <= 64 {
		t.Fatalf("LP at MaxLoadFactor 0.5 holds %d keys in %d slots: it never grew", m.Len(), m.Capacity())
	}
}

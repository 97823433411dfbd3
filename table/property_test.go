package table

import (
	"testing"
	"testing/quick"

	"repro/hashfn"
	"repro/internal/prng"
)

// opScript is a quick-generatable random operation stream.
type opScript struct {
	Seed uint64
	Ops  []opStep
}

type opStep struct {
	Kind uint8 // % 3: put, delete, get
	Key  uint16
	Val  uint64
}

// runScript replays a script against a table and Go's map, reporting
// whether every observable result agreed.
func runScript(m Table, script opScript) bool {
	oracle := map[uint64]uint64{}
	for _, op := range script.Ops {
		k := uint64(op.Key)
		switch op.Kind % 3 {
		case 0:
			_, existed := oracle[k]
			if ins, err := tryPut(m, k, op.Val); err != nil || ins == existed {
				return false
			}
			oracle[k] = op.Val
		case 1:
			_, existed := oracle[k]
			if m.Delete(k) != existed {
				return false
			}
			delete(oracle, k)
		default:
			want, wantOK := oracle[k]
			v, ok := m.Get(k)
			if ok != wantOK || (ok && v != want) {
				return false
			}
		}
		if m.Len() != len(oracle) {
			return false
		}
	}
	return true
}

// TestQuickMapLaws property-tests every scheme against the builtin map
// with random operation scripts under each hash family.
func TestQuickMapLaws(t *testing.T) {
	for _, s := range allSchemes() {
		for _, f := range []hashfn.Family{hashfn.MultFamily{}, hashfn.TabFamily{}} {
			s, f := s, f
			t.Run(string(s)+"/"+f.Name(), func(t *testing.T) {
				prop := func(script opScript) bool {
					m := mustNew(s, Config{
						InitialCapacity: 32,
						MaxLoadFactor:   0.8,
						Family:          f,
						Seed:            script.Seed,
					})
					return runScript(m, script)
				}
				cfg := &quick.Config{MaxCount: 40}
				if err := quick.Check(prop, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestQuickPutGetRoundTrip: any set of distinct keys inserted must all be
// retrievable with their last-written values.
func TestQuickPutGetRoundTrip(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			prop := func(keys []uint64, seed uint64) bool {
				m := mustNew(s, Config{
					InitialCapacity: 16,
					MaxLoadFactor:   0.75,
					Seed:            seed,
				})
				want := map[uint64]uint64{}
				for i, k := range keys {
					put(t, m, k, uint64(i))
					want[k] = uint64(i)
				}
				if m.Len() != len(want) {
					return false
				}
				for k, v := range want {
					got, ok := m.Get(k)
					if !ok || got != v {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickRHInvariant: after any insert sequence, Robin Hood's
// displacement ordering holds along every cluster.
func TestQuickRHInvariant(t *testing.T) {
	prop := func(keys []uint64, seed uint64) bool {
		m := newKern(SchemeRH, Config{InitialCapacity: 64, MaxLoadFactor: 0.9, Seed: seed})
		for _, k := range keys {
			put(t, m, k, k)
		}
		mask := uint64(m.Capacity() - 1)
		for i := range m.slots {
			if m.slots[i].key == emptyKey {
				continue
			}
			d := m.displacementAt(uint64(i))
			if d == 0 {
				continue
			}
			prev := (uint64(i) - 1) & mask
			if m.slots[prev].key == emptyKey {
				return false
			}
			if m.displacementAt(prev)+1 < d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCuckooPlacement: every inserted key sits at one of its candidate
// slots after arbitrary insert sequences.
func TestQuickCuckooPlacement(t *testing.T) {
	prop := func(keys []uint64, seed uint64) bool {
		m := newCuckoo(Config{InitialCapacity: 128, MaxLoadFactor: 0.85, Seed: seed})
		for _, k := range keys {
			put(t, m, k, k)
		}
		ok := true
		rangeAll(m, func(k, v uint64) bool {
			if isSentinelKey(k) {
				return true
			}
			found := false
			for j := 0; j < m.Ways(); j++ {
				if m.slots[m.pos(j, k)].key == k {
					found = true
					break
				}
			}
			if !found {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeleteRestoresAbsence: delete(k) always makes Get(k) miss, for
// every scheme, regardless of surrounding churn.
func TestQuickDeleteRestoresAbsence(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			prop := func(pre []uint16, k uint16, seed uint64) bool {
				m := mustNew(s, Config{InitialCapacity: 32, MaxLoadFactor: 0.8, Seed: seed})
				for _, p := range pre {
					put(t, m, uint64(p), 1)
				}
				put(t, m, uint64(k), 2)
				if !m.Delete(uint64(k)) {
					return false
				}
				_, ok := m.Get(uint64(k))
				return !ok
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickRangeMatchesContents: Range yields exactly the live entries.
func TestQuickRangeMatchesContents(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			prop := func(keys []uint16, seed uint64) bool {
				m := mustNew(s, Config{InitialCapacity: 32, MaxLoadFactor: 0.8, Seed: seed})
				want := map[uint64]uint64{}
				for i, k := range keys {
					put(t, m, uint64(k), uint64(i))
					want[uint64(k)] = uint64(i)
				}
				got := map[uint64]uint64{}
				rangeAll(m, func(k, v uint64) bool {
					if _, dup := got[k]; dup {
						return false
					}
					got[k] = v
					return true
				})
				if len(got) != len(want) {
					return false
				}
				for k, v := range want {
					if got[k] != v {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickGrowthPreservesContents: growing a table (by exceeding its
// threshold repeatedly) never loses or corrupts entries.
func TestQuickGrowthPreservesContents(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			prop := func(seed uint64, extra uint16) bool {
				n := 500 + int(extra)%2000
				m := mustNew(s, Config{InitialCapacity: 8, MaxLoadFactor: 0.7, Seed: seed})
				rng := prng.NewXoshiro256(seed)
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = rng.Next()
					put(t, m, keys[i], uint64(i))
				}
				for i, k := range keys {
					v, ok := m.Get(k)
					if !ok || v != uint64(i) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

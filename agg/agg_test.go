package agg

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/prng"
	"repro/table"
)

func TestGroupByBasics(t *testing.T) {
	g := MustNewGroupBy(Config{})
	g.Add(1, 10)
	g.Add(1, 20)
	g.Add(2, 5)
	if g.NumGroups() != 2 {
		t.Fatalf("Groups = %d", g.NumGroups())
	}
	s, ok := g.Get(1)
	if !ok || s.Count != 2 || s.Sum != 30 || s.Min != 10 || s.Max != 20 {
		t.Fatalf("group 1 state = %+v", s)
	}
	if s.Avg() != 15 {
		t.Fatalf("Avg = %v", s.Avg())
	}
	if _, ok := g.Get(99); ok {
		t.Fatal("phantom group")
	}
	if v := s.Value(Sum); v != 30 {
		t.Fatalf("Value(Sum) = %v", v)
	}
	if v := s.Value(Count); v != 2 {
		t.Fatalf("Value(Count) = %v", v)
	}
	if v := s.Value(Min); v != 10 {
		t.Fatalf("Value(Min) = %v", v)
	}
	if v := s.Value(Max); v != 20 {
		t.Fatalf("Value(Max) = %v", v)
	}
	if v := s.Value(Avg); v != 15 {
		t.Fatalf("Value(Avg) = %v", v)
	}
}

func TestFuncStrings(t *testing.T) {
	want := map[Func]string{Count: "COUNT", Sum: "SUM", Min: "MIN", Max: "MAX", Avg: "AVG"}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%d.String() = %s, want %s", int(f), f.String(), s)
		}
	}
	if Func(99).String() == "" {
		t.Error("unknown func should stringify")
	}
	empty := &State{}
	if !math.IsNaN(empty.Avg()) || !math.IsNaN(empty.Value(Func(99))) {
		t.Error("degenerate aggregates should be NaN")
	}
}

// TestGroupByMatchesOracle aggregates a random stream against a plain map
// oracle under every scheme.
func TestGroupByMatchesOracle(t *testing.T) {
	for _, scheme := range []table.Scheme{
		table.SchemeLP, table.SchemeQP, table.SchemeRH,
		table.SchemeCuckooH4, table.SchemeChained24,
	} {
		g := MustNewGroupBy(Config{Scheme: scheme, Seed: 3})
		oracle := map[uint64]*State{}
		rng := prng.NewXoshiro256(4)
		for i := 0; i < 100000; i++ {
			grp := rng.Uint64n(500)
			val := rng.Uint64n(1000)
			g.Add(grp, val)
			st, ok := oracle[grp]
			if !ok {
				oracle[grp] = &State{Key: grp, Count: 1, Sum: val, Min: val, Max: val}
			} else {
				st.Count++
				st.Sum += val
				if val < st.Min {
					st.Min = val
				}
				if val > st.Max {
					st.Max = val
				}
			}
		}
		if g.NumGroups() != len(oracle) {
			t.Fatalf("%s: %d groups, oracle %d", scheme, g.NumGroups(), len(oracle))
		}
		for key, s := range g.Groups() {
			if want := oracle[key]; *s != *want {
				t.Fatalf("%s: group %d = %+v, want %+v", scheme, key, *s, *want)
			}
		}
	}
}

func TestAddAllAndValidation(t *testing.T) {
	g := MustNewGroupBy(Config{ExpectedGroups: 1000})
	g.AddBatch([]uint64{1, 2, 1}, []uint64{10, 20, 30})
	if s, _ := g.Get(1); s.Sum != 40 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched columns did not panic")
		}
	}()
	g.AddBatch([]uint64{1}, nil)
}

// TestMergeEqualsSingle: partition-parallel aggregation (split, aggregate,
// merge) must equal single-stream aggregation.
func TestMergeEqualsSingle(t *testing.T) {
	rng := prng.NewXoshiro256(5)
	groups := make([]uint64, 50000)
	values := make([]uint64, len(groups))
	for i := range groups {
		groups[i] = rng.Uint64n(300)
		values[i] = rng.Uint64n(100)
	}
	single := MustNewGroupBy(Config{Seed: 6})
	single.AddBatch(groups, values)

	parts := make([]*GroupBy, 4)
	for p := range parts {
		parts[p] = MustNewGroupBy(Config{Seed: uint64(10 + p)})
	}
	for i := range groups {
		parts[i%4].Add(groups[i], values[i])
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.Merge(p)
	}
	if merged.NumGroups() != single.NumGroups() {
		t.Fatalf("merged %d groups, single %d", merged.NumGroups(), single.NumGroups())
	}
	for key, want := range single.Groups() {
		got, ok := merged.Get(key)
		if !ok || *got != *want {
			t.Fatalf("group %d: %+v, want %+v", key, got, want)
		}
	}
}

// TestQuickGroupBySumInvariant: total SUM over groups equals the stream
// total, and total COUNT equals the stream length.
func TestQuickGroupBySumInvariant(t *testing.T) {
	prop := func(groups []uint8, seed uint64) bool {
		g := MustNewGroupBy(Config{Seed: seed})
		var streamTotal uint64
		for i, grp := range groups {
			g.Add(uint64(grp), uint64(i))
			streamTotal += uint64(i)
		}
		var sum, count uint64
		for _, s := range g.Groups() {
			sum += s.Sum
			count += s.Count
		}
		return sum == streamTotal && count == uint64(len(groups))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableName(t *testing.T) {
	g := MustNewGroupBy(Config{})
	if g.TableName() != "QPMult" {
		t.Fatalf("TableName = %s, want QPMult", g.TableName())
	}
}

// TestNewGroupByHugeExpectedGroups: a group count no index can hold is an
// error, returned in bounded time.
func TestNewGroupByHugeExpectedGroups(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := NewGroupBy(Config{ExpectedGroups: 1 << 62})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("NewGroupBy sized an index for 2^62 groups")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewGroupBy still sizing after 5 s")
	}
}

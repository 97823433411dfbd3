package pipe_test

// Differential oracle suite: the streaming pipeline must produce exactly
// the rows and aggregate states of a reference composition
// (join.NestedLoopJoin folded row by row into agg.Add) — across every
// registered table scheme, serial and parallel, including scans of a
// sharded engine caught mid-resize.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/agg"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// The TPC-H-flavored fixture: customers carry a market segment, orders
// reference customers by key (with some dangling FKs) and carry a price
// in cents. The query under test is
//
//	SELECT c.segment, SUM(o.cents), COUNT(*), MIN(o.cents), MAX(o.cents)
//	FROM orders o JOIN customers c ON o.custkey = c.custkey
//	WHERE o.cents >= cut
//	GROUP BY c.segment

const (
	diffCustomers = 3_000
	diffOrders    = 20_000
	diffSegments  = 7
	diffCut       = 2_500 // ~75% of orders survive the filter
)

func makeCustomers() join.Relation {
	rel := make(join.Relation, diffCustomers)
	for i := range rel {
		key := uint64(i) + 1
		rel[i] = join.Row{Key: key, Payload: key % diffSegments}
	}
	return rel
}

func makeOrders(rng *rand.Rand) join.Relation {
	rel := make(join.Relation, diffOrders)
	for i := range rel {
		// ~23% of order keys point past the customer range: join misses.
		rel[i] = join.Row{
			Key:     uint64(rng.Intn(diffCustomers*13/10)) + 1,
			Payload: uint64(rng.Intn(10_000)),
		}
	}
	return rel
}

// oracleStates computes the query with the nested-loop join, each match
// folded into a scalar group-by.
func oracleStates(t *testing.T, customers, orders join.Relation) *agg.GroupBy {
	t.Helper()
	filtered := make(join.Relation, 0, len(orders))
	for _, r := range orders {
		if r.Payload >= diffCut {
			filtered = append(filtered, r)
		}
	}
	oracle := agg.MustNewGroupBy(agg.Config{})
	join.NestedLoopJoin(customers, filtered, func(_, segment, cents uint64) {
		if err := oracle.Add(segment, cents); err != nil {
			t.Fatal(err)
		}
	})
	return oracle
}

func sameGroups(t *testing.T, got, want *agg.GroupBy, label string) {
	t.Helper()
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("%s: %d groups, oracle %d", label, got.NumGroups(), want.NumGroups())
	}
	for key, ws := range want.Groups() {
		gs, ok := got.Get(key)
		if !ok {
			t.Fatalf("%s: group %d missing", label, key)
		}
		if *gs != *ws {
			t.Fatalf("%s: group %d state %+v, oracle %+v", label, key, gs, ws)
		}
	}
}

func TestDifferentialJoinGroupBy(t *testing.T) {
	customers := makeCustomers()
	orders := makeOrders(rand.New(rand.NewSource(42)))
	oracle := oracleStates(t, customers, orders)
	for _, scheme := range table.AllSchemes() {
		for _, workers := range []int{1, 8} {
			g, err := pipe.HashJoin(
				pipe.FromRelation(customers),
				pipe.FromRelation(orders).Filter(func(_, cents uint64) bool { return cents >= diffCut }),
				pipe.JoinConfig{
					Scheme:  scheme,
					Seed:    99,
					Project: func(_, segment, cents uint64) (uint64, uint64) { return segment, cents },
				},
			).GroupBy(pipe.Config{Workers: workers, MorselSize: 512}, pipe.GroupConfig{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", scheme, workers, err)
			}
			sameGroups(t, g, oracle, string(scheme))
		}
	}
	// With an understated size hint: the build side is a group-by's output,
	// hinted at one row and re-run at twice the size until the 3000
	// customers fit.
	for _, scheme := range noHintSchemes {
		for _, workers := range []int{1, 4} {
			g, err := pipe.HashJoin(
				unsizedBuild(customers),
				pipe.FromRelation(orders).Filter(func(_, cents uint64) bool { return cents >= diffCut }),
				pipe.JoinConfig{
					Scheme:  scheme,
					Seed:    99,
					Project: func(_, segment, cents uint64) (uint64, uint64) { return segment, cents },
				},
			).GroupBy(pipe.Config{Workers: workers, MorselSize: 512}, pipe.GroupConfig{})
			if err != nil {
				t.Fatalf("no hint, scheme %q workers=%d: %v", scheme, workers, err)
			}
			sameGroups(t, g, oracle, fmt.Sprintf("no hint, scheme %q workers=%d", scheme, workers))
		}
	}
}

// noHintSchemes are the build schemes the understated-hint cases run: the
// one the join picks for itself, and the ones whose inserts displace or
// allocate.
var noHintSchemes = []table.Scheme{"", table.SchemeRH, table.SchemeCuckooH4, table.SchemeChained24}

// unsizedBuild streams rel, whose keys are unique, back out of a group-by
// (MAX of one payload per key is that payload) with a hint of one row, so a
// HashJoin building from it sizes for one row and re-runs until rel fits.
func unsizedBuild(rel join.Relation) *pipe.Stream {
	return pipe.GroupByStream(pipe.FromRelation(rel), pipe.GroupConfig{}, agg.Max).Hint(1)
}

// TestDifferentialJoinCollect checks the raw joined row multiset (before
// any aggregation) against the NestedLoopJoin oracle, for the scheme the
// join picks for itself and for every kernel scheme pinned, and from a build
// side with no size hint.
func TestDifferentialJoinCollect(t *testing.T) {
	customers := makeCustomers()[:500]
	orders := makeOrders(rand.New(rand.NewSource(7)))[:4_000]
	var want [][2]uint64
	join.NestedLoopJoin(customers, orders, func(key, _, cents uint64) {
		want = append(want, [2]uint64{key, cents})
	})
	sortPairs(want)
	check := func(label string, build *pipe.Stream, scheme table.Scheme, workers int) {
		t.Helper()
		keys, vals, err := pipe.HashJoin(build, pipe.FromRelation(orders), pipe.JoinConfig{Scheme: scheme}).
			Collect(pipe.Config{Workers: workers, MorselSize: 256})
		if err != nil {
			t.Fatalf("%sscheme %q workers=%d: %v", label, scheme, workers, err)
		}
		if got := sortedPairs(keys, vals); !pairsEqual(got, want) {
			t.Fatalf("%sscheme %q workers=%d: joined multiset diverges from nested-loop oracle (%d vs %d rows)",
				label, scheme, workers, len(got), len(want))
		}
	}
	for _, scheme := range append([]table.Scheme{""}, table.KernelSchemes()...) {
		for _, workers := range []int{1, 2, 8} {
			check("", pipe.FromRelation(customers), scheme, workers)
		}
	}
	for _, scheme := range noHintSchemes {
		for _, workers := range []int{1, 4} {
			check("no hint, ", unsizedBuild(customers), scheme, workers)
		}
	}
}

// TestDifferentialScanMidResize scans a sharded engine while at least one
// shard has an incremental resize in flight, and checks the streamed rows
// against everything inserted. The weakly-consistent walk must still
// yield each key exactly once with its current value.
func TestDifferentialScanMidResize(t *testing.T) {
	h := table.MustOpen(
		table.WithPartitions(8),
		table.WithCapacity(128), // small: inserts force per-shard resizes
		table.WithSeed(3),
	)
	want := make(map[uint64]uint64)
	var key uint64
	insert := func(n int) {
		for i := 0; i < n; i++ {
			key++
			if _, err := h.Put(key, key*7); err != nil {
				t.Fatal(err)
			}
			want[key] = key * 7
		}
	}
	insert(1024)
	// Push more keys until a resize is observably in flight. The engine
	// migrates incrementally, so the window is wide; give up loudly if
	// the build is too fast to catch.
	migrating := false
	for round := 0; round < 200; round++ {
		insert(256)
		if h.EngineStats().Migrating > 0 {
			migrating = true
			break
		}
	}
	if !migrating {
		t.Skip("could not catch a resize in flight; engine migrated too eagerly")
	}
	for _, workers := range []int{1, 8} {
		if h.EngineStats().Migrating == 0 {
			t.Log("resize completed before scan; coverage is best-effort for this worker count")
		}
		keys, vals, err := pipe.FromHandle(h).Collect(pipe.Config{Workers: workers, MorselSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(want) {
			t.Fatalf("workers=%d: scanned %d rows, inserted %d", workers, len(keys), len(want))
		}
		seen := make(map[uint64]bool, len(keys))
		for i := range keys {
			if seen[keys[i]] {
				t.Fatalf("workers=%d: key %d yielded twice", workers, keys[i])
			}
			seen[keys[i]] = true
			if want[keys[i]] != vals[i] {
				t.Fatalf("workers=%d: key %d = %d, want %d", workers, keys[i], vals[i], want[keys[i]])
			}
		}
	}
}

// TestDifferentialGroupByAllSchemes: the parallel group-by — per-worker
// AddBatch locals merged on drain — must leave every group in exactly the
// state a serial agg.AddBatch does, whatever scheme the group index uses.
// At one worker even the first-seen group order matches.
func TestDifferentialGroupByAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	groups := make([]uint64, 50_000)
	values := make([]uint64, len(groups))
	for i := range groups {
		g := uint64(rng.Intn(1 << 10))
		groups[i] = g * g // non-contiguous group keys
		values[i] = uint64(rng.Intn(1 << 20))
	}
	for _, scheme := range table.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			serial := agg.MustNewGroupBy(agg.Config{Scheme: scheme, Seed: 42})
			if err := serial.AddBatch(groups, values); err != nil {
				t.Fatal(err)
			}
			var order []uint64
			for key := range serial.Groups() {
				order = append(order, key)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := pipe.FromColumns(groups, values).GroupBy(
					pipe.Config{Workers: workers, MorselSize: 1 << 10},
					pipe.GroupConfig{Scheme: scheme, Seed: 42})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sameGroups(t, got, serial, fmt.Sprintf("workers=%d", workers))
				if workers > 1 {
					continue
				}
				i := 0
				for key := range got.Groups() {
					if key != order[i] {
						t.Fatalf("workers=1: group %d is %d, serial %d", i, key, order[i])
					}
					i++
				}
			}
		})
	}
}

// TestDifferentialGroupByStream checks the two-level aggregation
// (group, then re-group the aggregates) against a serial recomputation.
func TestDifferentialGroupByStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	groups := make([]uint64, 50_000)
	values := make([]uint64, len(groups))
	for i := range groups {
		groups[i] = uint64(rng.Intn(1_000))
		values[i] = uint64(rng.Intn(100))
	}
	// Oracle: per-group counts, then a histogram of those counts.
	perGroup := map[uint64]uint64{}
	for _, g := range groups {
		perGroup[g]++
	}
	wantHist := agg.MustNewGroupBy(agg.Config{})
	for _, c := range perGroup {
		if err := wantHist.Add(c, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 8} {
		got, err := pipe.GroupByStream(
			pipe.FromColumns(groups, values), pipe.GroupConfig{}, agg.Count,
		).Map(func(_, count uint64) (uint64, uint64) { return count, 1 }).
			GroupBy(pipe.Config{Workers: workers, MorselSize: 1024}, pipe.GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sameGroups(t, got, wantHist, "count-histogram")
	}
}

// sortPairs applies sortedPairs' ordering in place, for multiset
// comparison of oracle output.
func sortPairs(p [][2]uint64) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

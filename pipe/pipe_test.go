package pipe_test

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/agg"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// sortedPairs normalizes a collected column pair for order-insensitive
// comparison.
func sortedPairs(keys, vals []uint64) [][2]uint64 {
	out := make([][2]uint64, len(keys))
	for i := range keys {
		out[i] = [2]uint64{keys[i], vals[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func pairsEqual(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCollectSerialOrder(t *testing.T) {
	keys := []uint64{5, 1, 9, 3}
	vals := []uint64{50, 10, 90, 30}
	gotK, gotV, err := pipe.FromColumns(keys, vals).Collect(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gotK[i] != keys[i] || gotV[i] != vals[i] {
			t.Fatalf("row %d: got (%d,%d), want (%d,%d)", i, gotK[i], gotV[i], keys[i], vals[i])
		}
	}
}

func TestFilterMapFusion(t *testing.T) {
	const n = 10_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for _, workers := range []int{1, 4} {
		// keep even keys, double them, then drop multiples of 10: three
		// fused stages in one pass.
		s := pipe.FromColumns(keys, nil).
			Filter(func(k, _ uint64) bool { return k%2 == 0 }).
			Map(func(k, v uint64) (uint64, uint64) { return k * 2, v }).
			Filter(func(k, _ uint64) bool { return k%10 != 0 })
		count, err := s.Count(pipe.Config{Workers: workers, MorselSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, k := range keys {
			if k%2 == 0 && (k*2)%10 != 0 {
				want++
			}
		}
		if count != want {
			t.Fatalf("workers=%d: count %d, want %d", workers, count, want)
		}
	}
}

func TestStreamImmutable(t *testing.T) {
	base := pipe.FromColumns([]uint64{1, 2, 3, 4}, nil)
	odd := base.Filter(func(k, _ uint64) bool { return k%2 == 1 })
	even := base.Filter(func(k, _ uint64) bool { return k%2 == 0 })
	no, err := odd.Count(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ne, err := even.Count(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := base.Count(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if no != 2 || ne != 2 || nb != 4 {
		t.Fatalf("odd=%d even=%d base=%d, want 2/2/4", no, ne, nb)
	}
}

func TestHashJoinBasic(t *testing.T) {
	build := join.Relation{{Key: 1, Payload: 100}, {Key: 2, Payload: 200}, {Key: 3, Payload: 300}}
	probe := join.Relation{{Key: 2, Payload: 7}, {Key: 3, Payload: 8}, {Key: 9, Payload: 9}, {Key: 2, Payload: 10}}
	for _, workers := range []int{1, 4} {
		j := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe), pipe.JoinConfig{
			Project: func(k, b, p uint64) (uint64, uint64) { return k, b + p },
		})
		keys, vals, err := j.Collect(pipe.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]uint64{{2, 207}, {2, 210}, {3, 308}}
		if got := sortedPairs(keys, vals); !pairsEqual(got, want) {
			t.Fatalf("workers=%d: joined %v, want %v", workers, got, want)
		}
	}
}

func TestHashJoinDefaultProject(t *testing.T) {
	build := join.Relation{{Key: 4, Payload: 40}}
	probe := join.Relation{{Key: 4, Payload: 44}}
	keys, vals, err := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe), pipe.JoinConfig{}).
		Collect(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != 4 || vals[0] != 44 {
		t.Fatalf("default Project emitted (%v, %v), want key + probe payload (4, 44)", keys, vals)
	}
}

func TestEmptyRelations(t *testing.T) {
	one := join.Relation{{Key: 1, Payload: 1}}
	for _, workers := range []int{1, 4} {
		for _, c := range []struct {
			name         string
			build, probe join.Relation
		}{{"empty build", nil, one}, {"empty probe", one, nil}, {"empty both", nil, nil}} {
			n, err := pipe.HashJoin(pipe.FromRelation(c.build), pipe.FromRelation(c.probe), pipe.JoinConfig{}).
				Count(pipe.Config{Workers: workers})
			if err != nil || n != 0 {
				t.Fatalf("workers=%d %s: %d rows, %v", workers, c.name, n, err)
			}
		}
	}
}

// TestQuickJoinEquivalence property-tests HashJoin against the nested-loop
// oracle on arbitrary relations. Its uint8 keys include key 0, one of the
// kernel's sentinels, and repeat freely on both sides. Each emitted build
// payload is the index of the build row it came from, so it must be a row
// offered for its key: at one worker the first such row, as in the oracle;
// at more, whichever the pool's schedule let in first.
func TestQuickJoinEquivalence(t *testing.T) {
	prop := func(buildKeys, probeKeys []uint8, seed uint64) bool {
		build := make(join.Relation, len(buildKeys))
		for i, k := range buildKeys {
			build[i] = join.Row{Key: uint64(k), Payload: uint64(i)}
		}
		probe := make(join.Relation, len(probeKeys))
		for i, k := range probeKeys {
			probe[i] = join.Row{Key: uint64(k), Payload: uint64(i)}
		}
		first := map[uint64]uint64{}
		want := join.NestedLoopJoin(build, probe, func(k, b, _ uint64) { first[k] = b })
		for _, workers := range []int{1, 4} {
			keys, vals, err := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe), pipe.JoinConfig{
				Scheme:  table.SchemeQP,
				Seed:    seed,
				Project: func(k, b, _ uint64) (uint64, uint64) { return k, b },
			}).Collect(pipe.Config{Workers: workers, MorselSize: 8})
			if err != nil || len(keys) != want {
				return false
			}
			for i, k := range keys {
				if uint64(buildKeys[vals[i]]) != k || workers == 1 && vals[i] != first[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByTerminal(t *testing.T) {
	groups := []uint64{1, 2, 1, 3, 2, 1}
	values := []uint64{10, 20, 30, 40, 50, 60}
	g, err := pipe.FromColumns(groups, values).GroupBy(pipe.Config{Workers: 1}, pipe.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := agg.MustNewGroupBy(agg.Config{})
	if err := oracle.AddBatch(groups, values); err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != oracle.NumGroups() {
		t.Fatalf("%d groups, oracle %d", g.NumGroups(), oracle.NumGroups())
	}
	for key, want := range oracle.Groups() {
		got, ok := g.Get(key)
		if !ok {
			t.Fatalf("group %d missing", key)
		}
		if *got != *want {
			t.Fatalf("group %d: %+v, want %+v", key, got, want)
		}
	}
}

func TestGroupByStreamChains(t *testing.T) {
	// count per group, then keep the groups seen more than once.
	groups := []uint64{1, 2, 1, 3, 2, 1, 4}
	s := pipe.GroupByStream(pipe.FromColumns(groups, nil), pipe.GroupConfig{}, agg.Count).
		Filter(func(_, count uint64) bool { return count > 1 })
	keys, vals, err := s.Collect(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]uint64{{1, 3}, {2, 2}}
	if got := sortedPairs(keys, vals); !pairsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestFromGroups(t *testing.T) {
	g := agg.MustNewGroupBy(agg.Config{})
	if err := g.AddBatch([]uint64{7, 8, 7}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	keys, vals, err := pipe.FromGroups(g, agg.Sum).Collect(pipe.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]uint64{{7, 4}, {8, 2}}
	if got := sortedPairs(keys, vals); !pairsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestFromGroupsAvgRejected(t *testing.T) {
	g := agg.MustNewGroupBy(agg.Config{})
	if err := g.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := pipe.FromGroups(g, agg.Avg).Drain(pipe.Config{Workers: 1}); err == nil {
		t.Fatal("AVG streamed as uint64 without error")
	}
}

func TestFromHandle(t *testing.T) {
	for _, partitions := range []int{1, 8} {
		h := table.MustOpen(table.WithPartitions(partitions), table.WithSeed(7))
		const n = 5000
		want := make(map[uint64]uint64, n)
		for i := uint64(1); i <= n; i++ {
			if _, err := h.Put(i, i*3); err != nil {
				t.Fatal(err)
			}
			want[i] = i * 3
		}
		for _, workers := range []int{1, 4} {
			keys, vals, err := pipe.FromHandle(h).
				Filter(func(k, _ uint64) bool { return k%2 == 0 }).
				Collect(pipe.Config{Workers: workers, MorselSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != n/2 {
				t.Fatalf("partitions=%d workers=%d: %d rows, want %d", partitions, workers, len(keys), n/2)
			}
			for i := range keys {
				if keys[i]%2 != 0 {
					t.Fatalf("odd key %d leaked through the pushed-down filter", keys[i])
				}
				if want[keys[i]] != vals[i] {
					t.Fatalf("key %d: val %d, want %d", keys[i], vals[i], want[keys[i]])
				}
			}
		}
	}
}

func TestUnderstatedHintParallelBuildLeaksNothing(t *testing.T) {
	// Hint(8) sizes the build table at 16 slots, and 40,000 rows need 2^17:
	// a dozen doublings, each dropping the table the build overran. The join
	// keeps none of them, so neither the goroutine count nor the live heap
	// keeps anything of the queries.
	const hint, rows = 8, 40_000
	build := make(join.Relation, rows)
	for i := range build {
		build[i] = join.Row{Key: uint64(i) + 1, Payload: uint64(i)}
	}
	probe := join.Relation{{Key: 1, Payload: 1}, {Key: uint64(rows), Payload: 2}, {Key: uint64(rows) + 1, Payload: 3}}
	queries := func(n int) {
		t.Helper()
		for range n {
			n, err := pipe.HashJoin(pipe.FromRelation(build).Hint(hint), pipe.FromRelation(probe), pipe.JoinConfig{}).
				Count(pipe.Config{Workers: 4, MorselSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("join matched %d probe rows, want 2", n)
			}
		}
	}
	// settle waits out the pool workers, which exit asynchronously to the
	// terminal's return, and returns the live heap after a collection.
	settle := func(goroutines int) uint64 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := runtime.NumGoroutine()
	queries(2) // warm whatever the first query allocates for good
	heap := settle(before)
	queries(16)
	after := settle(before)
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines before the understated-hint joins, %d after", before, got)
	}
	// One query's build table is ≥ rows×16 bytes; sixteen of them pinned
	// would be sixteen times that.
	if grew := int64(after - heap); grew > int64(rows)*16 {
		t.Fatalf("live heap grew %d bytes over 16 understated-hint joins of %d rows", grew, rows)
	}
}

func TestUnderstatedHintSharedBuildRebuilds(t *testing.T) {
	// Hint(9) sizes the build table at 32 slots, which 1000 rows overfill:
	// the build runs again into a table twice the size until one holds it,
	// and the join is right all the same — for the scheme Figure 8 picks
	// (LP, shared by compare-and-swap), a pinned QP, and a pinned RH whose
	// four workers take turns.
	build := make(join.Relation, 1000)
	for i := range build {
		build[i] = join.Row{Key: uint64(i) + 1, Payload: 1}
	}
	probe := make(join.Relation, 3000)
	for i := range probe {
		probe[i] = join.Row{Key: uint64(i) + 1, Payload: 2} // two thirds miss
	}
	for _, cfg := range []pipe.JoinConfig{{}, {Scheme: table.SchemeQP}, {Scheme: table.SchemeRH}} {
		m := pipe.NewMetrics(4)
		n, err := pipe.HashJoin(pipe.FromRelation(build).Hint(9), pipe.FromRelation(probe), cfg).
			Count(pipe.Config{Workers: 4, MorselSize: 64, Metrics: m})
		if err != nil || n != len(build) {
			t.Fatalf("scheme %q: %d rows, %v; want %d", cfg.Scheme, n, err, len(build))
		}
		if got := m.JoinBuild().RowsIn.Value(); got <= uint64(len(build)) {
			t.Fatalf("scheme %q: %d build rows: the fixed table took all %d, so this test reaches no re-run", cfg.Scheme, got, len(build))
		}
	}
}

func TestSharedBuildKeepsOneOfferedPayload(t *testing.T) {
	// Every build key arrives eight times with eight payloads, spread over
	// the morsels of four workers sharing one fixed table: each probe row
	// sees one of the payloads offered for its key, and every probe row of a
	// key the same one.
	const keys, copies = 5000, 8
	var build join.Relation
	for c := uint64(0); c < copies; c++ {
		for k := uint64(1); k <= keys; k++ {
			build = append(build, join.Row{Key: k, Payload: k*copies + c})
		}
	}
	probe := make(join.Relation, 3*keys)
	for i := range probe {
		probe[i] = join.Row{Key: uint64(i%keys) + 1}
	}
	gotK, gotV, err := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe),
		pipe.JoinConfig{Project: func(k, b, _ uint64) (uint64, uint64) { return k, b }}).
		Collect(pipe.Config{Workers: 4, MorselSize: 256})
	if err != nil || len(gotK) != len(probe) {
		t.Fatalf("%d rows, %v; want %d", len(gotK), err, len(probe))
	}
	kept := map[uint64]uint64{}
	for i, k := range gotK {
		if gotV[i]/copies != k {
			t.Fatalf("key %d joined payload %d, which no build row offered for it", k, gotV[i])
		}
		if was, seen := kept[k]; seen && was != gotV[i] {
			t.Fatalf("key %d joined payloads %d and %d", k, was, gotV[i])
		}
		kept[k] = gotV[i]
	}
}

// TestHugeHintIsAnError: a Hint no table can be sized for fails the query
// in bounded time.
func TestHugeHintIsAnError(t *testing.T) {
	rel := join.Relation{{Key: 1, Payload: 1}}
	done := make(chan error, 1)
	go func() {
		_, err := pipe.HashJoin(pipe.FromRelation(rel).Hint(1<<62), pipe.FromRelation(rel), pipe.JoinConfig{}).
			Count(pipe.Config{Workers: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a join sized its build for 2^62 rows")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HashJoin still sizing its build after 5 s")
	}
}

func TestHintPreSizesSerialBuild(t *testing.T) {
	// One worker follows the rule every worker count does: an understated
	// Hint re-runs the build into a table twice the size, and the join
	// answers what the nested-loop oracle does.
	build := make(join.Relation, 1000)
	for i := range build {
		build[i] = join.Row{Key: uint64(i) + 1, Payload: uint64(i) * 3}
	}
	probe := make(join.Relation, 1500)
	for i := range probe {
		probe[i] = join.Row{Key: uint64(i) + 1, Payload: uint64(i)} // a third miss
	}
	var want [][2]uint64
	join.NestedLoopJoin(build, probe, func(k, b, p uint64) { want = append(want, [2]uint64{k, b + p}) })
	sortPairs(want)
	m := pipe.NewMetrics(1)
	keys, vals, err := pipe.HashJoin(pipe.FromRelation(build).Hint(8), pipe.FromRelation(probe), pipe.JoinConfig{
		Project: func(k, b, p uint64) (uint64, uint64) { return k, b + p },
	}).Collect(pipe.Config{Workers: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedPairs(keys, vals); !pairsEqual(got, want) {
		t.Fatalf("joined %d rows, oracle %d: multisets differ", len(got), len(want))
	}
	if got := m.JoinBuild().RowsIn.Value(); got <= uint64(len(build)) {
		t.Fatalf("%d build rows: the Hint(8) table took all %d, so this test reaches no re-run", got, len(build))
	}
}

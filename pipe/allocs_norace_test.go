//go:build !race

package pipe_test

// A plan allocates per run, not per morsel: its operators borrow their
// batches, the join's probe answers among them, from the package's list
// and reuse them across morsels, and once a worker's groups are open,
// AddBatch looks a batch up through table's pooled chunk scratch and
// folds it in place. Not race-build tests: there sync.Pool drops a
// quarter of what it is handed back, so allocation counts vary from run
// to run.

import (
	"runtime"
	"slices"
	"testing"

	"repro/agg"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// planAllocs measures a scan → stages → terminal plan over four morsels
// and over sixty-four.
func planAllocs(t *testing.T, terminal func(*pipe.Stream, pipe.Config) error) (short, long float64) {
	plan := func(morsels int) func() {
		_, _, rows := stageColumns(morsels * stageMorsel)
		rel := make(join.Relation, len(rows))
		for i, r := range rows {
			rel[i] = join.Row{Key: r[0], Payload: r[1]}
		}
		s, _ := withStages(pipe.FromRelation(rel), stageChains[1].ops)
		return func() {
			if err := terminal(s, pipe.Config{Workers: 1, MorselSize: stageMorsel}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return testing.AllocsPerRun(10, plan(4)), testing.AllocsPerRun(10, plan(64))
}

// TestPlanAllocationsDoNotGrowWithMorsels: the per-worker batches are
// reused across morsels and the stages work in place, so a scan → stages
// → count plan over sixteen times the morsels allocates what the short
// one does.
func TestPlanAllocationsDoNotGrowWithMorsels(t *testing.T) {
	short, long := planAllocs(t, func(s *pipe.Stream, cfg pipe.Config) error {
		_, err := s.Count(cfg)
		return err
	})
	if long > short {
		t.Fatalf("%v allocations over 64 morsels, %v over 4: the plan allocates per morsel", long, short)
	}
}

func TestGroupByPlanAllocationsDoNotGrowWithMorsels(t *testing.T) {
	short, long := planAllocs(t, func(s *pipe.Stream, cfg pipe.Config) error {
		byGroup := s.Map(func(k, v uint64) (uint64, uint64) { return k % 16, v })
		_, err := byGroup.GroupBy(cfg, pipe.GroupConfig{ExpectedGroups: 16})
		return err
	})
	if long > short {
		t.Fatalf("%v allocations over 64 morsels, %v over 4: the group-by allocates per morsel", long, short)
	}
}

// indexedPlan is an indexed join over a four-shard handle → filter →
// group-by into groups groups, the shape of the end-to-end query over a
// live handle.
func indexedPlan(t *testing.T, groups uint64) (plan *pipe.Stream, gcfg pipe.GroupConfig, keys []uint64) {
	h := table.MustOpen(table.WithPartitions(4), table.WithCapacity(1<<14), table.WithSeed(5))
	keys = make([]uint64, 1<<12)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	if _, err := h.PutBatch(keys, keys); err != nil {
		t.Fatal(err)
	}
	probe := make(join.Relation, 1<<16)
	for i := range probe {
		// Two rows in three match; the third has a key bit flipped.
		probe[i] = join.Row{Key: keys[i%len(keys)] ^ uint64(i%3/2)<<63, Payload: uint64(i)}
	}
	plan = pipe.HashJoin(pipe.FromHandle(h), pipe.FromRelation(probe), pipe.JoinConfig{
		Project: func(_, b, p uint64) (uint64, uint64) { return b % groups, p },
	}).Filter(func(_, v uint64) bool { return v%4 != 0 })
	return plan, pipe.GroupConfig{ExpectedGroups: int(groups)}, keys
}

// bytesOf is what one run of f allocates, after a runtime.GC() when gc is
// set.
func bytesOf(f func(), gc bool) uint64 {
	if gc {
		runtime.GC()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// bytesPerRun is the median of what nine runs of f allocate, each after a
// runtime.GC() when gc is set.
func bytesPerRun(f func(), gc bool) uint64 {
	runs := make([]uint64, 9)
	for i := range runs {
		runs[i] = bytesOf(f, gc)
	}
	slices.Sort(runs)
	return runs[len(runs)/2]
}

// groupByBytes is bytesPerRun for plan's group-by at cfg, after a warm-up
// run, counting only runs in which every worker folded a morsel, as in the
// run before: which worker claims which morsel is the scheduler's choice,
// and a run whose second worker got none opens one group-by local fewer
// and gives none back for the next run.
func groupByBytes(t *testing.T, plan *pipe.Stream, cfg pipe.Config, gcfg pipe.GroupConfig, gc bool) uint64 {
	cfg.Metrics = pipe.NewMetrics(cfg.Workers)
	morsels := cfg.Metrics.GroupBy().Morsels
	folded := make([]uint64, cfg.Workers)
	run := func() {
		for w := range folded {
			folded[w] = morsels.ValueAt(w)
		}
		if _, err := plan.GroupBy(cfg, gcfg); err != nil {
			t.Fatal(err)
		}
		for w := range folded {
			folded[w] = morsels.ValueAt(w) - folded[w]
		}
	}
	run()
	runs := make([]uint64, 0, 9)
	for tries, all := 0, false; len(runs) < cap(runs); tries++ {
		if tries == 100 {
			t.Fatalf("only %d of %d runs followed a run in which every worker folded a morsel and did so too", len(runs), tries)
		}
		b, before := bytesOf(run, gc), all
		if all = !slices.Contains(folded, 0); all && before {
			runs = append(runs, b)
		}
	}
	slices.Sort(runs)
	return runs[len(runs)/2]
}

// TestPlanScratchDoesNotGrowWithMorselSize: the indexed plan at two
// workers takes its batches, its probe answers among them, and its
// group-by locals from the package's lists, projects the join's matches
// in place and returns a group-by local as its result, so after a warm-up
// run what a run allocates does not depend on the morsel size: at
// 8192-row morsels it stays under one group-by local for each worker that
// folded a morsel in the measured runs, plus 64 KiB. At one P the caller's
// worker may fold every morsel, and then the bound counts one local. Each
// figure is the median of nine runs, because a
// worker that woke on another P can miss the staging that shard pools left
// in the first P's private slot.
func TestPlanScratchDoesNotGrowWithMorselSize(t *testing.T) {
	const workers = 2
	plan, gcfg, keys := indexedPlan(t, 64)
	at := func(morsel int) (bytes uint64, folded int) {
		cfg := pipe.Config{Workers: workers, MorselSize: morsel, Metrics: pipe.NewMetrics(workers)}
		run := func() {
			if _, err := plan.GroupBy(cfg, gcfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC() // twice: empty the pools of earlier tests' staging
		runtime.GC()
		run()
		morsels := cfg.Metrics.GroupBy().Morsels
		var warm [workers]uint64
		for w := range warm {
			warm[w] = morsels.ValueAt(w)
		}
		bytes = bytesPerRun(run, false)
		for w := range warm {
			if morsels.ValueAt(w) > warm[w] {
				folded++
			}
		}
		return bytes, folded
	}
	short, _ := at(1024)
	long, folded := at(8192)
	locals := uint64(folded) * bytesPerRun(func() {
		g, err := agg.NewGroupBy(agg.Config{ExpectedGroups: gcfg.ExpectedGroups})
		if err == nil {
			err = g.AddBatch(keys[:gcfg.ExpectedGroups], keys[:gcfg.ExpectedGroups])
		}
		if err != nil {
			t.Fatal(err)
		}
	}, false)
	const slack = 64 << 10
	if long > short+16<<10 || long > locals+slack {
		t.Fatalf("a run allocates %d B at 1024-row morsels, %d B at 8192 (group-by locals %d B, %d workers folded): the plan's scratch grows with the morsel", short, long, locals, folded)
	}
}

// TestPlanScratchSurvivesGC: a run finds the scratch the last run gave
// back even when a GC comes in between (the end-to-end benchmark collects
// before every timed round) and whichever P it wakes on, so a run after a
// GC allocates what a run straight after another does, within 8 KiB. And
// the second worker reuses a merged-away local, so a run at two workers
// allocates at most 48 KiB more than one at one worker: the second local's
// fresh group index. Only runs in which every worker folded a morsel, as
// in the run before, count. The test runs at two Ps, one per worker:
// shard's batch staging stays a sync.Pool (the wait-free readers take it
// per call), and with more Ps than workers a GC leaves it in the private
// slot of a P the next run's workers may not wake on.
func TestPlanScratchSurvivesGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	plan, gcfg, _ := indexedPlan(t, 1024)
	at := func(workers int, gc bool) uint64 {
		return groupByBytes(t, plan, pipe.Config{Workers: workers, MorselSize: 4096}, gcfg, gc)
	}
	warm, collected := at(2, false), at(2, true)
	if collected > warm+8<<10 {
		t.Errorf("a run after a GC allocates %d B, one straight after another %d B: the scratch did not survive the GC", collected, warm)
	}
	if one := at(1, true); collected > one+48<<10 {
		t.Errorf("a run at two workers allocates %d B, at one %d B: the second worker's local is not reused", collected, one)
	}
}

// TestBigGroupByLocalsAreNotListed: a local sized for more than the lists
// keep goes to the collector with the run, though few groups reached it,
// so a dropped result leaves the live heap where it was.
func TestBigGroupByLocalsAreNotListed(t *testing.T) {
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = uint64(i % 16)
	}
	gcfg := pipe.GroupConfig{ExpectedGroups: 1 << 19}
	cfg := pipe.Config{Workers: 2, MorselSize: 1 << 10}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"GroupBy", func() error { _, err := pipe.FromColumns(keys, keys).GroupBy(cfg, gcfg); return err }},
		{"GroupByStream", func() error { return pipe.GroupByStream(pipe.FromColumns(keys, keys), gcfg, agg.Sum).Drain(cfg) }},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
			t.Errorf("%s: the live heap grew by %d KiB over a run with a dropped result: a local sized for 2^19 groups stayed listed", tc.name, grew>>10)
		}
	}
}

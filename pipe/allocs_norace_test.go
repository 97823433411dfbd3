//go:build !race

package pipe_test

// A plan allocates per run, not per morsel: its operators borrow their
// batches and probe scratch from the package pools and reuse them across
// morsels, and once a worker's groups are open, AddBatch looks a batch up
// through table's pooled chunk scratch and folds it in place. Not
// race-build tests: there sync.Pool drops a quarter of what it is handed
// back, so allocation counts vary from run to run.

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

// TestPlanScratchDoesNotGrowWithMorselSize: an indexed join → filter →
// group-by plan at two workers takes its batches and probe scratch from
// the package pools, projects the join's matches in place and returns a
// group-by local as its result, so after a warm-up run what a run
// allocates does not depend on the morsel size: at 8192-row morsels it
// stays under its group-by locals plus 64 KiB. Each figure is the median
// of nine runs, because a run whose goroutine woke on another P can miss
// the pooled item left in the first P's private slot.
func TestPlanScratchDoesNotGrowWithMorselSize(t *testing.T) {
	const workers, groups = 2, 64
	h := table.MustOpen(table.WithPartitions(4), table.WithCapacity(1<<14), table.WithSeed(5))
	keys := make([]uint64, 1<<12)
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
	gcfg := pipe.GroupConfig{ExpectedGroups: groups}
	plan := pipe.HashJoin(pipe.FromHandle(h), pipe.FromRelation(probe), pipe.JoinConfig{
		Project: func(_, b, p uint64) (uint64, uint64) { return b % groups, p },
	}).Filter(func(_, v uint64) bool { return v%4 != 0 })
	bytesPerRun := func(f func()) uint64 {
		runs := make([]uint64, 9)
		for i := range runs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			runs[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(runs)
		return runs[len(runs)/2]
	}
	at := func(morsel int) uint64 {
		run := func() {
			if _, err := plan.GroupBy(pipe.Config{Workers: workers, MorselSize: morsel}, gcfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC() // twice: empty the pools of earlier tests' batches
		runtime.GC()
		run()
		return bytesPerRun(run)
	}
	short, long := at(1024), at(8192)
	locals := workers * bytesPerRun(func() {
		g, err := agg.NewGroupBy(agg.Config{ExpectedGroups: groups})
		if err == nil {
			err = g.AddBatch(keys[:groups], keys[:groups])
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	const slack = 64 << 10
	if long > short+16<<10 || long > locals+slack {
		t.Fatalf("a run allocates %d B at 1024-row morsels, %d B at 8192 (group-by locals %d B): the plan's scratch grows with the morsel", short, long, locals)
	}
}

//go:build !race

package agg

// A batch of existing groups allocates nothing: the lookup reads through
// table's pooled chunk scratch and the fold is a loop over the columns.
// Nor does a batch that opens its groups into a reset GroupBy: the insert
// path's UpsertBatch callback is bound once, when the GroupBy is made, and
// the reset kept the state array. Not race-build tests: there sync.Pool
// drops a quarter of what it is handed back.

import (
	"math"
	"runtime"
	"testing"
)

func TestAddBatchOfExistingGroupsAllocatesNothing(t *testing.T) {
	groups, values := foldColumns(4096, 1024, 8)
	g := MustNewGroupBy(Config{ExpectedGroups: 1024, Seed: 16})
	if err := g.AddBatch(groups, values); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.AddBatch(groups, values) }); allocs != 0 {
		t.Fatalf("%v allocations per batch of existing groups, want 0", allocs)
	}
}

// The fewest allocations over eight resets: a GC that empties table's
// pooled chunk scratch mid-batch costs that batch an allocation.
func TestAddBatchOpeningGroupsAfterResetAllocatesNothing(t *testing.T) {
	groups, values := foldColumns(4096, 1024, 8)
	g := MustNewGroupBy(Config{ExpectedGroups: 1024, Seed: 16})
	fewest := uint64(math.MaxUint64)
	for seed := range uint64(8) {
		if err := g.Reset(Config{ExpectedGroups: 1024, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		// The first row opens a group: the fresh index makes its chunk
		// scratch, which is the index's, not the batch's.
		if err := g.AddBatch(groups[:1], values[:1]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := g.AddBatch(groups[1:], values[1:])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("at least %d allocations for a batch opening %d groups after a reset, want 0", fewest, g.NumGroups()-1)
	}
}

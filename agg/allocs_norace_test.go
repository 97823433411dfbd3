//go:build !race

package agg

// A batch of existing groups allocates nothing: the lookup reads through
// table's pooled chunk scratch, the fold is a loop over the columns, and
// the insert path — the only one that builds a closure — is never
// entered. Not a race-build test: there sync.Pool drops a quarter of what
// it is handed back.

import "testing"

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

//go:build !race

package pipe_test

// The group-by terminal allocates per plan, not per morsel: once a
// worker's groups are open, AddBatch looks a batch up through table's
// pooled chunk scratch and folds it in place. Not a race-build test:
// there sync.Pool drops a quarter of what it is handed back.

import (
	"testing"

	"repro/pipe"
)

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

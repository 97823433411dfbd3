package pipe

import (
	"testing"

	"repro/join"
	"repro/table"
)

// unsized is a build source that cannot say how many rows it has.
type unsized struct{ source }

func (unsized) rows() int { return -1 }

// TestOpenBuildFollowsRecommend: with no Scheme pinned the build table is
// the one table.Recommend names for the load factor join.CapacityFor
// really leaves it at, and a pinned Scheme is opened as given.
func TestOpenBuildFollowsRecommend(t *testing.T) {
	sized := func(n int) *Stream { return FromColumns(nil, nil).Hint(n) }
	cases := []struct {
		name  string
		build *Stream
		cfg   JoinConfig
		want  table.Scheme
	}{
		{"1M rows in 2^21 slots", sized(1_000_000), JoinConfig{}, table.SchemeLP},
		{"2^20 rows in 2^21 slots", sized(1 << 20), JoinConfig{}, table.SchemeRH},
		{"BuildRows over the stream's hint", sized(1 << 20), JoinConfig{BuildRows: 600_000}, table.SchemeLP},
		{"0.7 asked, 0.35 got", sized(367_002), JoinConfig{LoadFactor: 0.7}, table.SchemeLP},
		{"0.7 asked, 0.7 got", sized(734_000), JoinConfig{LoadFactor: 0.7}, table.SchemeRH},
		{"empty build side", sized(0), JoinConfig{}, table.SchemeLP},
		{"no hint", &Stream{src: unsized{}}, JoinConfig{}, table.SchemeRH},
		{"pinned", sized(1_000_000), JoinConfig{Scheme: table.SchemeQP}, table.SchemeQP},
		{"pinned, no hint", &Stream{src: unsized{}}, JoinConfig{Scheme: table.SchemeDH}, table.SchemeDH},
	}
	for _, workers := range []int{1, 2} {
		rt := newRuntime(Config{Workers: workers})
		for _, c := range cases {
			j := &joinSource{build: c.build, cfg: c.cfg}
			h, err := j.openBuild(rt)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if h.Scheme() != c.want {
				t.Errorf("%s, %d workers: opened %s, want %s (capacity %d)", c.name, workers, h.Scheme(), c.want, h.Capacity())
			}
			if c.cfg.Scheme == "" && len(h.DecisionPath()) == 0 {
				t.Errorf("%s, %d workers: default scheme did not come from the decision graph", c.name, workers)
			}
		}
		rt.close()
	}
	if got := join.CapacityFor(1_000_000, 0); got != 1<<21 {
		t.Fatalf("CapacityFor(1M, default) = %d; the cases above assume 2^21", got)
	}
}

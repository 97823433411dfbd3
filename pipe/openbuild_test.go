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
// really leaves it at, and a pinned Scheme is opened as given. A pre-sized
// build of a scheme that holds its entries still is ONE fixed table however
// many workers feed it; a displacing or allocating scheme, and a build side
// of unknown size, are sharded above one worker.
func TestOpenBuildFollowsRecommend(t *testing.T) {
	sized := func(n int) *Stream { return FromColumns(nil, nil).Hint(n) }
	cases := []struct {
		name    string
		build   *Stream
		cfg     JoinConfig
		want    table.Scheme
		sharded bool // above one worker
	}{
		{"1M rows in 2^21 slots", sized(1_000_000), JoinConfig{}, table.SchemeLP, false},
		{"2^20 rows in 2^21 slots", sized(1 << 20), JoinConfig{}, table.SchemeRH, true},
		{"BuildRows over the stream's hint", sized(1 << 20), JoinConfig{BuildRows: 600_000}, table.SchemeLP, false},
		{"0.7 asked, 0.35 got", sized(367_002), JoinConfig{LoadFactor: 0.7}, table.SchemeLP, false},
		{"0.7 asked, 0.7 got", sized(734_000), JoinConfig{LoadFactor: 0.7}, table.SchemeRH, true},
		{"empty build side", sized(0), JoinConfig{}, table.SchemeLP, false},
		{"no hint", &Stream{src: unsized{}}, JoinConfig{}, table.SchemeRH, true},
		{"pinned QP", sized(1_000_000), JoinConfig{Scheme: table.SchemeQP}, table.SchemeQP, false},
		{"pinned RH", sized(1_000_000), JoinConfig{Scheme: table.SchemeRH}, table.SchemeRH, true},
		{"pinned CuckooH4", sized(1_000_000), JoinConfig{Scheme: table.SchemeCuckooH4}, table.SchemeCuckooH4, true},
		{"pinned ChainedH24", sized(100_000), JoinConfig{Scheme: table.SchemeChained24}, table.SchemeChained24, true},
		{"pinned, no hint", &Stream{src: unsized{}}, JoinConfig{Scheme: table.SchemeDH}, table.SchemeDH, true},
	}
	for _, workers := range []int{1, 2, 8} {
		rt := newRuntime(Config{Workers: workers})
		for _, c := range cases {
			for _, grow := range []bool{false, true} {
				j := &joinSource{build: c.build, cfg: c.cfg}
				h, err := j.openBuild(rt, grow)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", c.name, workers, err)
				}
				if h.Scheme() != c.want {
					t.Errorf("%s, %d workers: opened %s, want %s (capacity %d)", c.name, workers, h.Scheme(), c.want, h.Capacity())
				}
				if c.cfg.Scheme == "" && len(h.DecisionPath()) == 0 {
					t.Errorf("%s, %d workers: default scheme did not come from the decision graph", c.name, workers)
				}
				// The rebuild after an understated hint is the sharded table
				// whatever the scheme.
				if sharded := workers > 1 && (c.sharded || grow); (h.Partitions() > 1) != sharded {
					t.Errorf("%s, %d workers, grow %v: %d partitions, want sharded = %v", c.name, workers, grow, h.Partitions(), sharded)
				}
			}
		}
		rt.close()
	}
	if got := join.CapacityFor(1_000_000, 0); got != 1<<21 {
		t.Fatalf("CapacityFor(1M, default) = %d; the cases above assume 2^21", got)
	}
}

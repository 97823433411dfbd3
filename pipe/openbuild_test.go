package pipe

import (
	"testing"

	"repro/join"
	"repro/table"
)

// TestOpenBuildFollowsRecommend: with no Scheme pinned the build table is
// the one table.Recommend names for the load factor join.CapacityFor
// really leaves it at, and a pinned Scheme is opened as given. Whatever the
// scheme, the hint or the worker count, it is ONE fixed table; a re-run
// after a refusal is one at least twice the refused table's size.
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
		{"empty build side", sized(0), JoinConfig{}, table.SchemeLP},
		{"pinned QP", sized(1_000_000), JoinConfig{Scheme: table.SchemeQP}, table.SchemeQP},
		{"pinned RH", sized(1_000_000), JoinConfig{Scheme: table.SchemeRH}, table.SchemeRH},
		{"pinned CuckooH4", sized(1_000_000), JoinConfig{Scheme: table.SchemeCuckooH4}, table.SchemeCuckooH4},
		{"pinned ChainedH24", sized(100_000), JoinConfig{Scheme: table.SchemeChained24}, table.SchemeChained24},
	}
	for _, workers := range []int{1, 2, 8} {
		rt := newRuntime(Config{Workers: workers})
		for _, c := range cases {
			j := &joinSource{build: c.build, cfg: c.cfg}
			h, err := j.buildTable(rt, nil)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if h.Scheme() != c.want {
				t.Errorf("%s, %d workers: opened %s, want %s (capacity %d)", c.name, workers, h.Scheme(), c.want, h.Capacity())
			}
			if c.cfg.Scheme == "" && len(h.DecisionPath()) == 0 {
				t.Errorf("%s, %d workers: default scheme did not come from the decision graph", c.name, workers)
			}
			if h.Partitions() != 1 {
				t.Errorf("%s, %d workers: %d partitions, want one fixed table", c.name, workers, h.Partitions())
			}
		}
		// A re-run is sized for twice the rows the refused table held, and
		// never smaller than twice its slots, even after a refusal well
		// short of full (a cuckoo's early wall).
		j := &joinSource{build: sized(1000)}
		first, err := j.buildTable(rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, held := range []int{first.Capacity() - 1, 1} {
			refused := &table.FullError{Scheme: string(first.Scheme()), Len: held, Capacity: first.Capacity()}
			h, err := j.buildTable(rt, refused)
			if err != nil {
				t.Fatalf("re-run after %d rows, %d workers: %v", held, workers, err)
			}
			if h.Capacity() < 2*first.Capacity() || h.Partitions() != 1 {
				t.Errorf("re-run after %d of %d rows, %d workers: capacity %d in %d partitions, want ≥ %d in one",
					held, first.Capacity(), workers, h.Capacity(), h.Partitions(), 2*first.Capacity())
			}
		}
	}
	if got := join.CapacityFor(1_000_000, 0); got != 1<<21 {
		t.Fatalf("CapacityFor(1M, default) = %d; the cases above assume 2^21", got)
	}
}

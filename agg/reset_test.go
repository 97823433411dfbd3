package agg

import (
	"reflect"
	"testing"

	"repro/table"
)

// TestResetEqualsNew: a GroupBy that is reset and then fed a batch holds,
// state for state and in first-seen order, what a new GroupBy of the
// reset's seed holds after the same batch, for every scheme. The reset
// one left a high-cardinality phase behind, and it keeps its grown state
// array. Its index hashes with the new seed: its Stats are the new
// GroupBy's, not those of one hashed with the old seed.
func TestResetEqualsNew(t *testing.T) {
	for _, scheme := range table.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			old := Config{Scheme: scheme, ExpectedGroups: 1024, Seed: 3}
			g := MustNewGroupBy(old)
			groups, values := foldColumns(4096, 0, 1) // every row its own group
			if err := g.AddBatch(groups, values); err != nil {
				t.Fatal(err)
			}
			grown := cap(g.states)
			if err := g.Reset(29); err != nil {
				t.Fatal(err)
			}
			if g.NumGroups() != 0 || cap(g.states) != grown {
				t.Fatalf("after Reset: %d groups, state capacity %d (was %d)", g.NumGroups(), cap(g.states), grown)
			}
			groups, values = foldColumns(4097, 1024, 5)
			feed := func(g *GroupBy) *GroupBy {
				if err := g.AddBatch(groups, values); err != nil {
					t.Fatal(err)
				}
				return g
			}
			feed(g)
			renewed := old
			renewed.Seed = 29
			want := feed(MustNewGroupBy(renewed))
			mustMatch(t, g, want)
			if got, want := g.Stats(), want.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("reset index stats %+v, a new one's of the same seed %+v", got, want)
			}
			if before := feed(MustNewGroupBy(old)).Stats(); reflect.DeepEqual(g.Stats(), before) {
				t.Fatalf("reset index stats %+v equal the old seed's: Reset kept the old hash function", before)
			}
		})
	}
}

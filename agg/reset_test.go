package agg

import (
	"reflect"
	"testing"

	"repro/hashfn"
	"repro/table"
)

// TestResetEqualsNew: a GroupBy that is reset to a config and then fed a
// batch holds, state for state and in first-seen order, what a new
// GroupBy of that config holds after the same batch: for every scheme at
// a new seed, and across schemes, families and group counts. The reset
// one left a high-cardinality phase behind, and it keeps its grown state
// array unless the new config expects more groups than it holds. Its
// index is the new config's: its Stats are the new GroupBy's, not those of
// one under the old config.
func TestResetEqualsNew(t *testing.T) {
	type reset struct {
		name     string
		old, new Config
	}
	var resets []reset
	for _, scheme := range table.AllSchemes() {
		resets = append(resets, reset{string(scheme),
			Config{Scheme: scheme, ExpectedGroups: 1024, Seed: 3},
			Config{Scheme: scheme, ExpectedGroups: 1024, Seed: 29}})
	}
	chained := Config{Scheme: table.SchemeChained24, Family: hashfn.MurmurFamily{}, ExpectedGroups: 64, Seed: 3}
	probing := Config{Scheme: table.SchemeQP, Family: hashfn.MultFamily{}, ExpectedGroups: 1024, Seed: 29}
	resets = append(resets,
		reset{"ChainedH24Murmur64-to-QPMult1024", chained, probing},
		reset{"QPMult1024-to-ChainedH24Murmur64", probing, chained},
		reset{"LP64-to-LP16384", Config{Scheme: table.SchemeLP, ExpectedGroups: 64, Seed: 3},
			Config{Scheme: table.SchemeLP, ExpectedGroups: 1 << 14, Seed: 29}},
	)
	for _, r := range resets {
		t.Run(r.name, func(t *testing.T) {
			g := MustNewGroupBy(r.old)
			groups, values := foldColumns(4096, 0, 1) // every row its own group
			if err := g.AddBatch(groups, values); err != nil {
				t.Fatal(err)
			}
			grown := cap(g.states)
			if err := g.Reset(r.new); err != nil {
				t.Fatal(err)
			}
			if wantCap := max(grown, r.new.ExpectedGroups); g.NumGroups() != 0 || cap(g.states) != wantCap {
				t.Fatalf("after Reset: %d groups, state capacity %d (was %d, want %d)", g.NumGroups(), cap(g.states), grown, wantCap)
			}
			groups, values = foldColumns(4097, 1024, 5)
			feed := func(g *GroupBy) *GroupBy {
				if err := g.AddBatch(groups, values); err != nil {
					t.Fatal(err)
				}
				return g
			}
			feed(g)
			want := feed(MustNewGroupBy(r.new))
			mustMatch(t, g, want)
			if got, want := g.Stats(), want.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("reset index stats %+v, a new one's of the same config %+v", got, want)
			}
			if before := feed(MustNewGroupBy(r.old)).Stats(); reflect.DeepEqual(g.Stats(), before) {
				t.Fatalf("reset index stats %+v equal the old config's: Reset kept the old index settings", before)
			}
		})
	}
}

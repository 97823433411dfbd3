package bench

import (
	"fmt"
	"io"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

// Fig6Cell is one matrix cell: the winning table and its throughput.
type Fig6Cell struct {
	Label string
	Mops  float64
}

// Fig6Result is the best-performer matrix of Figure 6: for every
// ⟨capacity, distribution, load factor⟩ the fastest table for insertions,
// and for every additional unsuccessful-lookup percentage the fastest
// table for lookups.
type Fig6Result struct {
	// Capacities are the slot counts used for the S/M/L columns.
	Capacities []int
	// Insert[dist][lf][capIdx] is the insertion winner.
	Insert map[dist.Kind]map[int][]Fig6Cell
	// Lookup[dist][lf][capIdx][mixIdx] is the lookup winner; mixIdx
	// indexes Mixes.
	Lookup map[dist.Kind]map[int][][]Fig6Cell
}

// Fig6Capacities returns the default S/M/L slot counts for the matrix.
// They are smaller than the single-figure capacities because the matrix
// multiplies out to 3 x 3 x 3 x |contenders| full WORM runs.
func Fig6Capacities() []int { return []int{1 << 14, 1 << 17, 1 << 20} }

// fig6Contenders are the tables competing for cells: the paper's Figure 6
// winners all use Mult (§5.2: "no hash table is the absolute best using
// Murmur"), so the matrix competes the Mult tables plus ChainedH24 where
// it fits the memory budget (load factor 50% only).
func fig6Contenders(lf int) []contender {
	schemes := []table.Scheme{table.SchemeLP, table.SchemeQP, table.SchemeRH, table.SchemeCuckooH4}
	if lf <= 50 {
		schemes = append(schemes, table.SchemeChained24)
	}
	return withFamilies([]hashfn.Family{hashfn.MultFamily{}}, schemes...)
}

// RunFig6 regenerates Figure 6 by running the full WORM sweep across three
// capacities and reporting the argmax per cell.
func RunFig6(opt Options) (*Fig6Result, error) {
	opt = opt.withDefaults()
	caps := opt.Fig6Caps
	if len(caps) == 0 {
		caps = Fig6Capacities()
	}
	res := &Fig6Result{
		Capacities: caps,
		Insert:     map[dist.Kind]map[int][]Fig6Cell{},
		Lookup:     map[dist.Kind]map[int][][]Fig6Cell{},
	}
	for _, d := range dist.Kinds() {
		res.Insert[d] = map[int][]Fig6Cell{}
		res.Lookup[d] = map[int][][]Fig6Cell{}
		for _, lf := range HighLoadFactors {
			res.Insert[d][lf] = make([]Fig6Cell, len(res.Capacities))
			res.Lookup[d][lf] = make([][]Fig6Cell, len(res.Capacities))
			for ci, capSlots := range res.Capacities {
				res.Lookup[d][lf][ci] = make([]Fig6Cell, len(Mixes))
				for _, c := range fig6Contenders(lf) {
					s := newWORMSeries(c.label())
					if err := wormPoint(opt, c, d, capSlots, lf, s); err != nil {
						return nil, fmt.Errorf("bench: fig6 %s/%s lf=%d cap=%d: %w", c.label(), d, lf, capSlots, err)
					}
					if s.OverBudget[lf] {
						continue
					}
					insert, lookups := s.InsertMops[lf], s.LookupMops[lf]
					if insert > res.Insert[d][lf][ci].Mops {
						res.Insert[d][lf][ci] = Fig6Cell{c.label(), insert}
					}
					for mi, u := range Mixes {
						if lookups[u] > res.Lookup[d][lf][ci][mi].Mops {
							res.Lookup[d][lf][ci][mi] = Fig6Cell{c.label(), lookups[u]}
						}
					}
					opt.logf("fig6 %-18s %-6s lf=%2d cap=2^%2d: insert %6.1f, lookups %v",
						c.label(), d, lf, log2int(capSlots), insert, lookups)
				}
			}
		}
	}
	return res, nil
}

func log2int(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

var capNames = []string{"S", "M", "L"}

// capName labels the ci-th capacity column, falling back to the index when
// more than three capacities are configured.
func capName(ci int) string {
	if ci < len(capNames) {
		return capNames[ci]
	}
	return fmt.Sprintf("C%d", ci)
}

// RenderFig6 prints the best-performer matrix.
func RenderFig6(w io.Writer, res *Fig6Result) {
	fmt.Fprintln(w, "=== Figure 6: absolute best performers (WORM), winner and Mops per cell ===")
	for _, d := range dist.Kinds() {
		fmt.Fprintf(w, "\n--- %s distribution ---\n", d)
		fmt.Fprintf(w, "%-8s %-4s  %-24s", "lf", "cap", "Insertions")
		for _, u := range Mixes {
			fmt.Fprintf(w, "  u=%3d%%: %-20s", u, "")
		}
		fmt.Fprintln(w)
		for _, lf := range HighLoadFactors {
			for ci := range res.Capacities {
				ins := res.Insert[d][lf][ci]
				fmt.Fprintf(w, "%-8s %-4s  %-24s", fmt.Sprintf("%d%%", lf), capName(ci),
					fmt.Sprintf("%s (%.0f)", ins.Label, ins.Mops))
				for mi := range Mixes {
					c := res.Lookup[d][lf][ci][mi]
					fmt.Fprintf(w, "  %-28s", fmt.Sprintf("%s (%.0f)", c.Label, c.Mops))
				}
				fmt.Fprintln(w)
			}
		}
	}
}

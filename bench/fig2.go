package bench

import (
	"fmt"
	"io"

	"repro/dist"
	"repro/table"
)

// RunFig2 regenerates Figure 2: WORM insert and lookup throughput at the
// low load factors 25/35/45%, comparing the two chained variants against
// linear probing under Mult and Murmur across the three distributions.
// It also collects the memory footprints that Figure 3 plots.
func RunFig2(opt Options) ([]WORMExperiment, error) {
	opt = opt.withDefaults()
	contenders := opt.contendersFor(table.SchemeChained8, table.SchemeChained24, table.SchemeLP)
	return runWORMFigure(opt, "fig2", dist.Kinds(), contenders, LowLoadFactors, nil)
}

// RunFig4 regenerates Figure 4: WORM at the high load factors 50/70/90%
// with all open-addressing schemes; ChainedH24 participates only where it
// fits the §4.5 memory budget, which is 50% alone.
func RunFig4(opt Options) ([]WORMExperiment, error) {
	opt = opt.withDefaults()
	contenders := opt.contendersFor(
		table.SchemeChained24,
		table.SchemeCuckooH4, table.SchemeLP, table.SchemeQP, table.SchemeRH,
	)
	overBudget := func(c contender, lf int) bool {
		return c.scheme == table.SchemeChained24 && !fitsChained24Budget(float64(lf)/100, opt.Capacity)
	}
	return runWORMFigure(opt, "fig4", dist.Kinds(), contenders, HighLoadFactors, overBudget)
}

// RenderFig2 prints the Figure 2 panels.
func RenderFig2(w io.Writer, exps []WORMExperiment) {
	renderWORM(w, "Figure 2: WORM, low load factors (25/35/45%)", exps, LowLoadFactors)
}

// RenderFig4 prints the Figure 4 panels.
func RenderFig4(w io.Writer, exps []WORMExperiment) {
	renderWORM(w, "Figure 4: WORM, high load factors (50/70/90%)", exps, HighLoadFactors)
}

// Fig3Row is one memory-footprint cell of Figure 3.
type Fig3Row struct {
	Label       string
	LoadFactor  int
	MemoryBytes uint64
	OverBudget  bool
}

// Fig3FromFig2 extracts Figure 3 — memory footprint under the dense
// distribution — from a Figure 2 run. The dense distribution produces the
// largest spread between hash functions (collisions differ), which is why
// the paper plots it.
func Fig3FromFig2(exps []WORMExperiment) []Fig3Row {
	var rows []Fig3Row
	for _, e := range exps {
		if e.Dist != dist.Dense {
			continue
		}
		for _, s := range e.Series {
			for _, lf := range sortedKeys(s.MemoryBytes) {
				rows = append(rows, Fig3Row{
					Label:       s.Label,
					LoadFactor:  lf,
					MemoryBytes: s.MemoryBytes[lf],
					OverBudget:  s.OverBudget[lf],
				})
			}
		}
	}
	return rows
}

// RenderFig3 prints the Figure 3 memory table.
func RenderFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "=== Figure 3: memory footprint, dense distribution [MB] ===")
	byLabel := map[string]map[int]Fig3Row{}
	var labels []string
	lfset := map[int]bool{}
	for _, r := range rows {
		if byLabel[r.Label] == nil {
			byLabel[r.Label] = map[int]Fig3Row{}
			labels = append(labels, r.Label)
		}
		byLabel[r.Label][r.LoadFactor] = r
		lfset[r.LoadFactor] = true
	}
	lfs := sortedKeys(lfsetToMap(lfset))
	fmt.Fprintf(w, "%-22s", "")
	for _, lf := range lfs {
		fmt.Fprintf(w, "  lf=%2d%%", lf)
	}
	fmt.Fprintln(w)
	for _, label := range labels {
		fmt.Fprintf(w, "%-22s", label)
		for _, lf := range lfs {
			r, ok := byLabel[label][lf]
			if !ok {
				fmt.Fprintf(w, "  %6s", "-")
				continue
			}
			cell := fmt.Sprintf("%.0f", float64(r.MemoryBytes)/(1<<20))
			if r.OverBudget {
				cell += "!"
			}
			fmt.Fprintf(w, "  %6s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "('!' marks footprints exceeding the 110% chained-hashing budget of §4.5)")
}

func lfsetToMap(s map[int]bool) map[int]struct{} {
	out := make(map[int]struct{}, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5–§7): it sweeps the seven dimensions,
// measures throughput in millions of operations per second and memory
// footprints in bytes, and renders the same rows/series the paper plots.
//
// Each figure has a Run function returning structured results and a Render
// function printing them as text tables:
//
//	Figure 2 — RunFig2 / RenderFig2: WORM at low load factors (25/35/45%),
//	           chained variants vs linear probing.
//	Figure 3 — Fig3FromFig2 / RenderFig3: memory footprints of the Fig. 2
//	           tables (dense distribution).
//	Figure 4 — RunFig4 / RenderFig4: WORM at high load factors (50/70/90%),
//	           all open-addressing schemes (+ ChainedH24 at 50%).
//	Figure 5 — RunFig5 / RenderFig5: the RW workload sweep.
//	Figure 6 — RunFig6 / RenderFig6: best-performer matrix across
//	           capacities, distributions, load factors and lookup mixes.
//	Figure 7 — RunFig7 / RenderFig7: AoS vs SoA layout under linear
//	           probing (the paper's AVX-2 series are not reproduced; see
//	           EXPERIMENTS.md).
//
// Every WORM figure (2, 3, 4, 6 and 7) measures through one point,
// wormPoint; Figure 5 measures through the one RW point, rwPoint.
//
// The package is also the one owner of the workloads those points run,
// for every other caller too: NewWORMTable with the §4.5 memory budget
// that sizes chained directories and decides which ChainedH24 points
// Figure 4 runs, and the RW tape (Tape, GenRWTape). RunChaos, the
// robustness harness, replays the same tapes under a fault schedule.
//
// Capacities are scaled for a single laptop-class machine (see README's
// "Regenerating the paper's figures"): the paper's 2^16 / 2^27 / 2^30 slots become
// 2^16 / 2^20 / 2^24 by default, all configurable.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

// The paper's capacity classes, scaled (Small keeps the paper's 2^16 — in
// cache; Medium and Large are outside cache on any modern machine).
const (
	CapacitySmall  = 1 << 16
	CapacityMedium = 1 << 20
	CapacityLarge  = 1 << 24
)

// Load-factor sweeps of §5.
var (
	LowLoadFactors  = []int{25, 35, 45}
	HighLoadFactors = []int{50, 70, 90}
	AllLoadFactors  = []int{25, 35, 45, 50, 70, 90}
)

// Mixes is the unsuccessful-lookup sweep used by every lookup plot.
var Mixes = []int{0, 25, 50, 75, 100}

// UpdatePcts is the §6 update-percentage sweep.
var UpdatePcts = []int{0, 5, 25, 50, 75, 100}

// GrowAtPcts is the §6 rehash-threshold sweep.
var GrowAtPcts = []int{50, 70, 90}

// Options configures a harness run.
type Options struct {
	// Capacity is the open-addressing capacity l for the WORM figures
	// (default CapacityMedium).
	Capacity int
	// Lookups is the probe count per lookup mix (default: one per key).
	Lookups int
	// RWInitial is the pre-fill size for Figure 5 (default 1<<16); the
	// paper used 16M.
	RWInitial int
	// RWOps is the stream length for Figure 5 (default 1<<22); the paper
	// used 1000M. The default preserves the paper's ~64:1 ops:initial
	// ratio.
	RWOps int
	// Fig6Caps overrides the S/M/L capacities of the Figure 6 matrix
	// (default Fig6Capacities()).
	Fig6Caps []int
	// Repeats averages every throughput over this many independent runs
	// with derived seeds, the paper's three-seed methodology (§4.2).
	// Default 1.
	Repeats int
	// AllFamilies sweeps all four hash functions (Mult, MultAdd, Tab,
	// Murmur) instead of the Mult/Murmur subset the paper presents —
	// §4.4 narrowed the published plots to two families but the full
	// 24-combination matrix was evaluated; this restores it.
	AllFamilies bool
	// Seed makes runs reproducible.
	Seed uint64
	// Log, when non-nil, receives one progress line per experiment point.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = CapacityMedium
	}
	if o.RWInitial <= 0 {
		o.RWInitial = 1 << 16
	}
	if o.RWOps <= 0 {
		o.RWOps = 1 << 22
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// contender is one curve in a plot: a scheme paired with a hash family.
type contender struct {
	scheme table.Scheme
	family hashfn.Family
}

func (c contender) label() string {
	return string(c.scheme) + c.family.Name()
}

// multMurmur pairs each scheme with the two families the paper plots.
func multMurmur(schemes ...table.Scheme) []contender {
	return withFamilies([]hashfn.Family{hashfn.MultFamily{}, hashfn.MurmurFamily{}}, schemes...)
}

// allFamilies pairs each scheme with all four families of §3 (the paper's
// full evaluated matrix).
func allFamilies(schemes ...table.Scheme) []contender {
	return withFamilies(hashfn.Families(), schemes...)
}

func withFamilies(families []hashfn.Family, schemes ...table.Scheme) []contender {
	out := make([]contender, 0, len(families)*len(schemes))
	for _, s := range schemes {
		for _, f := range families {
			out = append(out, contender{scheme: s, family: f})
		}
	}
	return out
}

// contendersFor picks the family sweep per the options.
func (o Options) contendersFor(schemes ...table.Scheme) []contender {
	if o.AllFamilies {
		return allFamilies(schemes...)
	}
	return multMurmur(schemes...)
}

// WORMSeries is one labelled curve across load factors and lookup mixes.
type WORMSeries struct {
	Label string
	// InsertMops maps load-factor percent -> build throughput.
	InsertMops map[int]float64
	// LookupMops maps load-factor percent -> unsuccessful percent ->
	// probe throughput.
	LookupMops map[int]map[int]float64
	// MemoryBytes maps load-factor percent -> footprint.
	MemoryBytes map[int]uint64
	// OverBudget marks load factors where a chained table exceeded the
	// §4.5 memory budget (the paper drops those points).
	OverBudget map[int]bool
}

func newWORMSeries(label string) *WORMSeries {
	return &WORMSeries{
		Label:       label,
		InsertMops:  map[int]float64{},
		LookupMops:  map[int]map[int]float64{},
		MemoryBytes: map[int]uint64{},
		OverBudget:  map[int]bool{},
	}
}

// WORMExperiment groups the series of one distribution's panel.
type WORMExperiment struct {
	Dist   dist.Kind
	Series []*WORMSeries
}

// renderWORM prints one figure's panels as text tables.
func renderWORM(w io.Writer, title string, exps []WORMExperiment, lfs []int) {
	fmt.Fprintf(w, "=== %s ===\n", title)
	for _, e := range exps {
		fmt.Fprintf(w, "\n--- %s distribution ---\n", e.Dist)
		fmt.Fprintf(w, "%-22s", "Insertions [Mops]")
		for _, lf := range lfs {
			fmt.Fprintf(w, "  lf=%2d%%", lf)
		}
		fmt.Fprintln(w)
		for _, s := range e.Series {
			fmt.Fprintf(w, "%-22s", s.Label)
			for _, lf := range lfs {
				if s.OverBudget[lf] {
					fmt.Fprintf(w, "  %6s", "over")
					continue
				}
				if v, ok := s.InsertMops[lf]; ok {
					fmt.Fprintf(w, "  %6.1f", v)
				} else {
					fmt.Fprintf(w, "  %6s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		for _, lf := range lfs {
			fmt.Fprintf(w, "\nLookups at %d%% load factor [Mops], by %% unsuccessful\n", lf)
			fmt.Fprintf(w, "%-22s", "")
			for _, u := range Mixes {
				fmt.Fprintf(w, "  u=%3d%%", u)
			}
			fmt.Fprintln(w)
			for _, s := range e.Series {
				if _, ok := s.LookupMops[lf]; !ok {
					continue
				}
				fmt.Fprintf(w, "%-22s", s.Label)
				for _, u := range Mixes {
					if v, ok := s.LookupMops[lf][u]; ok {
						fmt.Fprintf(w, "  %6.1f", v)
					} else {
						fmt.Fprintf(w, "  %6s", "-")
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
}

// sortedKeys returns the sorted integer keys of a map.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Command hashbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper plots;
// README's "Regenerating the paper's figures" maps them to the paper.
//
// Usage:
//
//	hashbench -experiment fig2            # Figure 2 (WORM, low load factors)
//	hashbench -experiment fig4 -slots 24  # Figure 4 at 2^24 slots
//	hashbench -experiment all -v          # everything, with progress lines
//
// Experiments: fig2, fig3, fig4, fig5, fig6, fig7, layout, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: fig2|fig3|fig4|fig5|fig6|fig7|layout|all")
		slotsLog2  = flag.Int("slots", 20, "log2 of the open-addressing capacity for WORM figures (paper: 30)")
		lookups    = flag.Int("lookups", 0, "lookups per mix (0 = one per resident key)")
		rwInitial  = flag.Int("rw-initial", 1<<16, "initial keys for the RW workload (paper: 16M)")
		rwOps      = flag.Int("rw-ops", 1<<22, "operations in the RW stream (paper: 1000M)")
		repeats    = flag.Int("repeats", 1, "average throughputs over this many seeded runs (paper: 3)")
		allFams    = flag.Bool("all-functions", false, "sweep all four hash functions, not just the Mult/Murmur subset the paper plots")
		seed       = flag.Uint64("seed", 42, "PRNG seed (experiments are deterministic per seed)")
		verbose    = flag.Bool("v", false, "print one progress line per experiment point")
	)
	flag.Parse()

	if *slotsLog2 < 4 || *slotsLog2 > 30 {
		fmt.Fprintf(os.Stderr, "hashbench: -slots %d outside [4,30]\n", *slotsLog2)
		os.Exit(2)
	}
	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	opt := bench.Options{
		Capacity:    1 << *slotsLog2,
		Lookups:     *lookups,
		RWInitial:   *rwInitial,
		RWOps:       *rwOps,
		Repeats:     *repeats,
		AllFamilies: *allFams,
		Seed:        *seed,
		Log:         log,
	}

	if err := run(*experiment, opt, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hashbench: %v\n", err)
		os.Exit(1)
	}
}

func run(experiment string, opt bench.Options, w io.Writer) error {
	switch experiment {
	case "fig2":
		exps, err := bench.RunFig2(opt)
		if err != nil {
			return err
		}
		bench.RenderFig2(w, exps)
	case "fig3":
		exps, err := bench.RunFig2(opt)
		if err != nil {
			return err
		}
		bench.RenderFig3(w, bench.Fig3FromFig2(exps))
	case "fig4":
		exps, err := bench.RunFig4(opt)
		if err != nil {
			return err
		}
		bench.RenderFig4(w, exps)
	case "fig5":
		exps, err := bench.RunFig5(opt)
		if err != nil {
			return err
		}
		bench.RenderFig5(w, exps)
	case "fig6":
		res, err := bench.RunFig6(opt)
		if err != nil {
			return err
		}
		bench.RenderFig6(w, res)
	case "fig7":
		exps, err := bench.RunFig7(opt)
		if err != nil {
			return err
		}
		bench.RenderFig7(w, exps)
	case "layout":
		points, err := bench.RunLayoutModel(opt)
		if err != nil {
			return err
		}
		bench.RenderLayoutModel(w, points)
	case "all":
		for _, e := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "layout"} {
			if err := run(e, opt, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("unknown experiment %q (want fig2|fig3|fig4|fig5|fig6|fig7|layout|all)", experiment)
	}
	return nil
}

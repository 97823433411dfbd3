package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dist"
	"repro/table"
)

// RWSeries is one curve of Figure 5: a labelled table across the
// update-percentage sweep at one grow-at threshold.
type RWSeries struct {
	Label string
	// Mops maps update percent -> overall stream throughput.
	Mops map[int]float64
	// MemoryBytes maps update percent -> final footprint.
	MemoryBytes map[int]uint64
}

// RWExperiment groups the series of one grow-at panel.
type RWExperiment struct {
	GrowAtPct int
	Series    []*RWSeries
}

// RunFig5 regenerates Figure 5: 1000M-ops-scaled RW streams over sparse
// keys, sweeping the update percentage {0,5,25,50,75,100} at rehash
// thresholds {50,70,90}%. ChainedH24 participates only at the 50%
// threshold, the only configuration where its memory stays comparable
// (§6). One op tape per update percentage is generated once and replayed
// against every scheme.
func RunFig5(opt Options) ([]RWExperiment, error) {
	opt = opt.withDefaults()
	contenders := opt.contendersFor(
		table.SchemeCuckooH4, table.SchemeLP, table.SchemeQP, table.SchemeRH,
		table.SchemeChained24,
	)
	// One repeat = one data seed: a fresh set of tapes replayed against
	// every scheme (within-repeat fairness), throughputs averaged across
	// repeats (the paper's three-seed methodology). The tape's key
	// generator seed and the replaying table's seed must agree, since the
	// tape encodes the distribution's concrete keys.
	var exps []RWExperiment
	for _, grow := range GrowAtPcts {
		exps = append(exps, RWExperiment{GrowAtPct: grow})
	}
	series := map[int]map[string]*RWSeries{} // grow -> label -> series
	for gi, grow := range GrowAtPcts {
		series[grow] = map[string]*RWSeries{}
		for _, c := range contenders {
			if c.scheme == table.SchemeChained24 && grow != 50 {
				continue
			}
			s := &RWSeries{
				Label:       c.label(),
				Mops:        map[int]float64{},
				MemoryBytes: map[int]uint64{},
			}
			series[grow][c.label()] = s
			exps[gi].Series = append(exps[gi].Series, s)
		}
	}
	for r := 0; r < opt.Repeats; r++ {
		seed := opt.Seed + uint64(r)*0x9e3779b9
		gen := dist.New(dist.Sparse, seed)
		tapes := make(map[int]*Tape, len(UpdatePcts))
		for _, up := range UpdatePcts {
			tapes[up] = GenRWTape(gen, opt.RWInitial, opt.RWOps, up, seed+uint64(up))
		}
		for _, grow := range GrowAtPcts {
			for _, c := range contenders {
				s, ok := series[grow][c.label()]
				if !ok {
					continue
				}
				for _, up := range UpdatePcts {
					if err := rwPoint(opt, c, tapes[up], seed, grow, up, s); err != nil {
						return nil, fmt.Errorf("bench: fig5 %s grow=%d up=%d: %w", c.label(), grow, up, err)
					}
				}
			}
		}
	}
	return exps, nil
}

// rwPoint replays one RW tape (§6) against a fresh table of contender c
// and writes its throughput, averaged over opt.Repeats, and its final
// footprint into s at update percentage up. The table starts just under
// 50% full, the paper's ~47%, with the first opt.RWInitial keys of the
// sparse distribution under seed (the tape's own), and grows at grow%
// load. The timed loop holds nothing but table operations; hit and miss
// counts and the final size are checked against the tape. It runs
// through a Handle, since the RW stream is the dynamic case Open serves.
func rwPoint(opt Options, c contender, tape *Tape, seed uint64, grow, up int, s *RWSeries) error {
	if grow <= 0 || grow >= 100 {
		return fmt.Errorf("RW grow-at threshold must be in (0,100)%%, got %d%%", grow)
	}
	m, err := table.Open(
		table.WithScheme(c.scheme),
		table.WithCapacity(initialCapacityFor(opt.RWInitial)),
		table.WithMaxLoadFactor(float64(grow)/100),
		table.WithHashFamily(c.family),
		table.WithSeed(seed),
	)
	if err != nil {
		return err
	}
	gen := dist.New(dist.Sparse, seed)
	for i := 0; i < opt.RWInitial; i++ {
		m.Put(gen.Key(uint64(i)), uint64(i))
	}
	if m.Len() != opt.RWInitial {
		return fmt.Errorf("RW prefill left %d entries, want %d", m.Len(), opt.RWInitial)
	}

	var hits, misses int
	var sink uint64
	start := time.Now()
	for i, kind := range tape.Kinds {
		k := tape.Keys[i]
		switch kind {
		case OpInsert:
			m.Put(k, k)
		case OpDelete:
			m.Delete(k)
		default:
			if v, ok := m.Get(k); ok {
				hits++
				sink ^= v
			} else {
				misses++
			}
		}
	}
	elapsed := time.Since(start)
	_ = sink

	if hits != tape.Hits || misses != tape.Misses {
		return fmt.Errorf("RW replay observed %d hits/%d misses, tape has %d/%d", hits, misses, tape.Hits, tape.Misses)
	}
	if want := opt.RWInitial + tape.Inserts - tape.Deletes; m.Len() != want {
		return fmt.Errorf("RW replay left %d entries, want %d", m.Len(), want)
	}
	run := mops(tape.Len(), elapsed)
	s.Mops[up] += run / float64(opt.Repeats)
	s.MemoryBytes[up] = m.MemoryFootprint()
	opt.logf("fig5 %-18s grow=%2d%% updates=%3d%%: %6.1f Mops, mem %d MB",
		c.label(), grow, up, run, s.MemoryBytes[up]>>20)
	return nil
}

// RenderFig5 prints the Figure 5 panels.
func RenderFig5(w io.Writer, exps []RWExperiment) {
	fmt.Fprintln(w, "=== Figure 5: RW workload, sparse keys (throughput and memory) ===")
	for _, e := range exps {
		fmt.Fprintf(w, "\n--- growing at %d%% load factor ---\n", e.GrowAtPct)
		fmt.Fprintf(w, "%-22s", "Throughput [Mops]")
		for _, up := range UpdatePcts {
			fmt.Fprintf(w, "  up=%3d%%", up)
		}
		fmt.Fprintln(w)
		for _, s := range e.Series {
			fmt.Fprintf(w, "%-22s", s.Label)
			for _, up := range UpdatePcts {
				fmt.Fprintf(w, "  %7.1f", s.Mops[up])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-22s", "Memory [MB]")
		for _, up := range UpdatePcts {
			fmt.Fprintf(w, "  up=%3d%%", up)
		}
		fmt.Fprintln(w)
		for _, s := range e.Series {
			fmt.Fprintf(w, "%-22s", s.Label)
			for _, up := range UpdatePcts {
				fmt.Fprintf(w, "  %7.0f", float64(s.MemoryBytes[up])/(1<<20))
			}
			fmt.Fprintln(w)
		}
	}
}

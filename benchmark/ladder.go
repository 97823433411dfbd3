package main

// The traced run. A ladder is a list of rungs — loops the benchmark
// writes against one layer's public API — driven over one workload's own
// inputs, rung after rung within each ladder round so that machine-speed
// drift hits neighbouring rungs alike. A layer's number is its rung minus
// the rung below. A traced run reports every per-layer metric, so it climbs
// every workload's ladder whichever workload it was started for. Each
// ladder also runs its top rung untraced: the ratio of the two is what
// tracing costs that workload.

import (
	"fmt"
	"runtime"
)

// rung is one loop of a ladder.
type rung struct {
	name string
	// rows is what one pass processes, where the rung reports ns/row.
	rows int
	// run makes one pass; id is the pass's span, the parent of the
	// spans the pass records.
	run func(id, round int32) error
	// wall collects the pass times of the measured rounds, in ns.
	wall []float64
}

// nsPerRow is the median pass time over the rows of a pass.
func (g *rung) nsPerRow() float64 { return median(g.wall) / float64(g.rows) }

// climb runs one warm-up round (round -1, its totals discarded) and then
// rounds measured rounds of the rungs, collecting garbage before each pass.
func climb(tr *tracer, name string, rounds int, rungs []*rung, meters []*meter) error {
	top := tr.begin(name, -1, -1)
	defer tr.end(top)
	for r := -1; r < rounds; r++ {
		for _, g := range rungs {
			runtime.GC()
			id := tr.begin(g.name, top, int32(r))
			t0 := now()
			err := g.run(id, int32(r))
			wall := now() - t0
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			if r >= 0 {
				g.wall = append(g.wall, float64(wall))
			}
		}
		if r < 0 {
			for _, m := range meters {
				m.reset()
			}
		}
	}
	return nil
}

// emitOverhead reports what tracing costs a workload's top rung: the
// traced pass time over the untraced one (= untraced ÷ traced rows_per_s).
func emitOverhead(res *result, workload string, traced, untraced *rung) {
	res.emit("trace.overhead_ratio."+workload, "ratio", median(traced.wall)/median(untraced.wall))
}

// runTraced climbs every ladder and returns the per-layer metrics.
func runTraced(cfg runConfig) (*result, error) {
	tr := newTracer()
	res := &result{}
	for _, l := range workloads {
		rounds := l.ladderRounds
		if cfg.rounds > 0 {
			rounds = cfg.rounds
		}
		if err := l.ladder(cfg, tr, rounds, res); err != nil {
			return nil, err
		}
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return nil, err
	}
	return res, nil
}

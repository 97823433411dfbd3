package main

// The end-to-end driver: set-up, warm-up, fixed-work timed rounds, and the
// six end-to-end metrics every workload reports.

import (
	"fmt"
	"runtime"
	"sort"
)

const (
	// warmupRounds precede the timed rounds and are part of set-up.
	warmupRounds = 3
	// batchRows is the batch size of every batched table call and the
	// morsel size of every pool and pipeline the benchmark builds.
	batchRows = 4096
)

// runConfig is one run's input. The zero scale and rounds mean "as
// declared"; the smoke test shrinks both.
type runConfig struct {
	seed uint64
	// scale divides every input size (1 for real runs).
	scale int
	// rounds overrides the workload's timed round count, and stands in
	// for its ladder round count too.
	rounds int
	// corrupt falsifies one oracle expectation after set-up, to prove a
	// wrong answer is reported as a failed operation.
	corrupt  bool
	traceOut string
}

func (c runConfig) scaled(n int) int { return n / max(c.scale, 1) }

// ops counts oracle-checked operations.
type ops struct{ attempted, failed int }

func (o *ops) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *ops) add(other ops) {
	o.attempted += other.attempted
	o.failed += other.failed
}

// instance is one set-up workload: its inputs, oracle and tables.
type instance interface {
	// slices is how many slices a round has. A slice is a fifth of a
	// second of work or less, short enough for the reference readings
	// before and after it to tell how fast the machine ran during it.
	slices() int
	// slice runs slice s of a round of the workload's fixed work,
	// checking every result against the oracle, and returns the rows it
	// processed. sampled slices append their calls' ns/row to the
	// instance's samples.
	slice(s int, sampled bool) (rows int, err error)
	// correct divides the samples the latest sampled slice appended by
	// speed, the machine-speed index measured around that slice.
	correct(speed float64)
	// finish runs the end-of-run checks (final Len, unchanged state).
	finish()
	// tally returns the checked-operation counts and the per-call ns/row
	// samples of the sampled rounds (nil when a sample is a whole round).
	tally() (ops, []float64)
	// corrupt falsifies one oracle expectation.
	corrupt()
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// threads is how many threads the workload keeps busy; its reference
	// readings use as many.
	threads int
	// rounds is the fixed number of timed rounds: work is a constant of
	// the workload, never a time budget. Sized so that the timed rounds
	// take at least 15 s in the fastest phase of the sandbox the bounds
	// were measured on, and a run fits the driver's cap in its slowest.
	rounds int
	// ladderRounds is the number of measured rounds of the workload's
	// ladder, after one warm-up round. A traced run climbs all four
	// ladders and must fit the time of an untraced run, so these are few:
	// compare ladders over several traced runs.
	ladderRounds int
	setup        func(cfg runConfig) (instance, error)
	// ladder climbs the workload's rungs in a traced run and emits its
	// per-layer metrics.
	ladder func(cfg runConfig, tr *tracer, rounds int, res *result) error
}

var workloads = []*workload{
	{name: "worm_probe", threads: 1, rounds: 30, ladderRounds: 2, setup: setupWorm, ladder: wormLadder},
	{name: "rw_resize", threads: 2, rounds: 20, ladderRounds: 1, setup: setupRW, ladder: rwLadder},
	{name: "join_agg", threads: 2, rounds: 120, ladderRounds: 2, setup: setupJoinAgg, ladder: joinAggLadder},
	{name: "live_query", threads: 2, rounds: 120, ladderRounds: 2, setup: setupLiveQuery, ladder: liveQueryLadder},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// order lists the metric names as they were emitted, for printing.
	order []string
}

// emit adds a metric; a name is emitted once.
func (r *result) emit(name, unit string, value float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) count(o ops) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Correct = r.Failed == 0
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

const mib = 1 << 20

// runEndToEnd measures one workload untraced and returns its end-to-end
// metrics, plus a note for the report header: the round and sample counts,
// the timed seconds, the throughput by the wall clock, the range of the
// speed index and the 99th percentile, which are printed but not gated.
// Every reported time is on the reference clock.
func runEndToEnd(w *workload, cfg runConfig) (res *result, note string, err error) {
	if cfg.rounds == 0 {
		cfg.rounds = w.rounds
	}
	clock, err := newRefClock(w.threads)
	if err != nil {
		return nil, "", err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	refAlloc := ms.TotalAlloc // the reference table is not the workload's

	// Set-up: inputs, oracle and tables as one interval, then the warm-up
	// rounds slice by slice.
	var inst instance
	wall, speed, err := clock.time(func() (err error) {
		inst, err = w.setup(cfg)
		return err
	})
	if err != nil {
		return nil, "", fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setupNs := wall / speed
	for range warmupRounds {
		for s := range inst.slices() {
			wall, speed, err := clock.time(func() error {
				_, err := inst.slice(s, false)
				return err
			})
			if err != nil {
				return nil, "", fmt.Errorf("%s warm-up: %w", w.name, err)
			}
			setupNs += wall / speed
		}
	}
	if cfg.corrupt {
		inst.corrupt()
	}

	rounds := cfg.rounds
	roundNs := make([]float64, rounds) // on the reference clock
	wallNs := make([]float64, rounds)  // by the wall clock
	rowsPerRound := 0
	for r := range roundNs {
		runtime.GC()
		rowsPerRound = 0
		for s := range inst.slices() {
			wall, speed, err := clock.time(func() error {
				rows, err := inst.slice(s, true)
				rowsPerRound += rows
				return err
			})
			if err != nil {
				return nil, "", fmt.Errorf("%s round %d: %w", w.name, r, err)
			}
			inst.correct(speed)
			roundNs[r] += wall / speed
			wallNs[r] += wall
		}
	}
	inst.finish()

	checked, perCall := inst.tally()
	if perCall == nil {
		// A sample is one whole round (one query).
		perCall = make([]float64, rounds)
		for r, ns := range roundNs {
			perCall[r] = ns / float64(rowsPerRound)
		}
	}
	sort.Float64s(perCall)

	clock.cells = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)

	res = &result{}
	res.count(checked)
	res.emit("setup_s", "s", setupNs/1e9)
	res.emit("rows_per_s", "rows/s", float64(rowsPerRound)/(median(roundNs)/1e9))
	res.emit("row_ns_p50", "ns/row", quantile(perCall, 0.50))
	res.emit("row_ns_p90", "ns/row", quantile(perCall, 0.90))
	res.emit("live_heap_mb", "MiB", float64(ms.HeapAlloc)/mib)
	res.emit("total_alloc_mb", "MiB", float64(ms.TotalAlloc-refAlloc)/mib)
	timedNs := 0.0
	for _, ns := range wallNs {
		timedNs += ns
	}
	note = fmt.Sprintf("rounds=%d samples=%d timed_s=%.1f wall_rows_per_s=%.6g speed_index=%.3f..%.3f row_ns_p99=%.6g (ungated)",
		rounds, len(perCall), timedNs/1e9, float64(rowsPerRound)/(median(wallNs)/1e9), clock.fastest, clock.slowest, quantile(perCall, 0.99))
	return res, note, nil
}

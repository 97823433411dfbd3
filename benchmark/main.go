// Command benchmark is the repo's one repeatable end-to-end benchmark:
// four fixed-work workloads over the public API, six end-to-end metrics
// each, and a traced layer ladder. See README.md in this directory.
//
//	go run ./benchmark -workload join_agg [-seed 1] [-trace 1] [-out runs.jsonl]
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// specFile declares the workloads, metrics and bounds; runs are started
// from the repo root, where it lives.
const specFile = "BENCHMARK.json"

// defaultTraceOut is inside the directory run.sh builds into, which git
// ignores: a run writes nowhere else.
const defaultTraceOut = "benchmark/.bench_build/trace.json"

// record is one run as -out appends it and -compare reads it back.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit: 0 on a correct run, 1 on a failed
// operation, a failed comparison or an error, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: worm_probe, rw_resize, join_agg or live_query")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	fs.Int("seconds", 0, "accepted and ignored: the work of a run is fixed, see run_seconds in "+specFile+" for how long it takes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced ladder")
	traceOut := fs.String("trace-out", defaultTraceOut, "Chrome trace JSON of a traced run")
	out := fs.String("out", "", "append this run to a JSON-lines result set, for -compare")
	compare := fs.Bool("compare", false, "compare two result sets given as arguments against the bounds in "+specFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		same, err := compareSets(fs.Arg(0), fs.Arg(1), specFile, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !same {
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark -workload <worm_probe|rw_resize|join_agg|live_query> [-seed N] [-trace 0|1]")
		return 2
	}
	return execute(w, runConfig{seed: *seed, traceOut: *traceOut}, *trace, *out, stdout, stderr)
}

// execute measures one workload and turns the outcome into an exit code.
func execute(w *workload, cfg runConfig, trace int, out string, stdout, stderr io.Writer) int {
	res, err := measure(w, cfg, trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if out != "" {
		if err := appendRecord(out, record{Workload: w.name, Seed: cfg.seed, Trace: trace, Result: res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload, prints every metric by name with its unit,
// and prints the result object as the last line.
func measure(w *workload, cfg runConfig, traced bool, stdout io.Writer) (*result, error) {
	// Two threads everywhere: the sandbox has two cores, and a fixed
	// count keeps runs on bigger machines comparable.
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("need at least 2 CPUs, have %d", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(2)

	var res *result
	if traced {
		var err error
		if res, err = runTraced(cfg); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "seed=%d traced ladders of every workload, spans in %s\n", cfg.seed, cfg.traceOut)
	} else {
		var note string
		var err error
		if res, note, err = runEndToEnd(w, cfg); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "workload=%s seed=%d %s\n", w.name, cfg.seed, note)
	}
	fmt.Fprintf(stdout, "operations attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

func appendRecord(path string, rec record) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("result set: %w", cerr)
		}
	}()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	return nil
}

// Command decide answers "which hash table should I use?" by walking the
// paper's Figure 8 decision graph for a workload described on the command
// line.
//
// Usage:
//
//	decide -load-factor 0.9 -unsuccessful 25 -write-heavy=false -dynamic=false -dense=false
//
// The output names the recommended ⟨scheme, hash function⟩ and prints the
// decision path with the paper sections supporting each edge. With -json
// the recommendation is emitted as machine-readable JSON instead:
//
//	{"scheme":"CuckooH4","family":"Mult","path":[...],"label":"CH4Mult"}
//
// Either way the recommendation is resolved by actually opening a handle
// through table.Open(WithWorkload(...)), so the printed choice is exactly
// what the library would pick for the same description.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/decision"
	"repro/table"
)

func main() {
	var (
		loadFactor   = flag.Float64("load-factor", 0.5, "expected operating load factor in (0,1)")
		unsuccessful = flag.Int("unsuccessful", 0, "expected percentage of lookups probing absent keys [0,100]")
		writeHeavy   = flag.Bool("write-heavy", false, "more writes (inserts+deletes) than reads")
		dynamic      = flag.Bool("dynamic", false, "table grows/shrinks over its lifetime (OLTP-like)")
		dense        = flag.Bool("dense", false, "keys are densely distributed integers (e.g. generated primary keys)")
		threads      = flag.Int("threads", 1, "goroutines expected to share the table concurrently; >1 adds shard-count and exec worker-count recommendations")
		jsonOut      = flag.Bool("json", false, "emit the recommendation (scheme, family, shards, workers, path, label) as JSON")
	)
	flag.Parse()

	w := table.Workload{
		LoadFactor:      *loadFactor,
		UnsuccessfulPct: *unsuccessful,
		WriteHeavy:      *writeHeavy,
		Dynamic:         *dynamic,
		Dense:           *dense,
	}
	if err := run(os.Stdout, w, *threads, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "decide: %v\n", err)
		os.Exit(2)
	}
}

// choice is a recommendation: a scheme, a hash-function family name, the
// sizing advice for concurrent use and the audit trail of decisions that
// led there. Its JSON tags are the -json payload.
type choice struct {
	Scheme table.Scheme `json:"scheme"`
	Family string       `json:"family"` // always "Mult" per the paper's Figure 8
	// Shards is the recommended shard count for concurrent use (the
	// argument to table.Open's WithPartitions), set when the thread count
	// is > 1; zero means single-threaded use, no striping.
	Shards int `json:"shards,omitempty"`
	// Workers is the recommended exec.Config.Workers for the parallel
	// operators, set alongside Shards; zero means no pool.
	Workers int      `json:"workers,omitempty"`
	Path    []string `json:"path"`
	// Label is the paper-style table label, e.g. "RHMult".
	Label string `json:"label"`
}

// label composes the paper-style table label from a scheme and a family
// name; Figure 8 abbreviates CuckooH4 as CH4.
func label(s table.Scheme, family string) string {
	if s == table.SchemeCuckooH4 {
		return "CH4" + family
	}
	return string(s) + family
}

func run(out io.Writer, w table.Workload, threads int, asJSON bool) error {
	// The handle exists only to be read, so it is opened at the minimum
	// capacity.
	h, err := table.Open(table.WithWorkload(w), table.WithCapacity(8))
	if err != nil {
		return err
	}
	c := choice{
		Scheme:  h.Scheme(),
		Family:  h.HashName(),
		Shards:  decision.ShardsFor(threads),
		Workers: decision.WorkersFor(threads),
		Path:    h.DecisionPath(),
	}
	c.Label = label(c.Scheme, c.Family)
	if asJSON {
		return json.NewEncoder(out).Encode(c)
	}
	fmt.Fprintf(out, "Recommendation: %s\n", c.Label)
	if c.Shards > 0 {
		fmt.Fprintf(out, "Striping: WithPartitions(%d) for %d concurrent goroutines (power of two >= 2x threads)\n", c.Shards, threads)
	}
	if c.Workers > 0 {
		fmt.Fprintf(out, "Execution: exec.Config{Workers: %d} for the parallel operators (threads clamped to GOMAXPROCS)\n", c.Workers)
	}
	fmt.Fprintln(out, "Decision path:")
	for i, step := range c.Path {
		fmt.Fprintf(out, "  %d. %s\n", i+1, step)
	}
	return nil
}

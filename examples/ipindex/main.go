// IPindex: a point-query index over grid-distributed keys — the paper's
// "think of IP addresses" distribution — that lets the Figure 8 decision
// graph pick its own hash table from a workload description, then verifies
// the choice by racing it against the alternatives.
package main

import (
	"fmt"
	"time"

	"repro/dist"
	"repro/table"
)

func main() {
	const (
		capacity = 1 << 20
		alpha    = 0.9 // memory is tight: we must run the table nearly full
		unsucc   = 30  // ~30% of probed addresses are unknown
	)
	n := capacity * 9 / 10 // alpha * capacity

	// Describe the workload and let the paper's decision graph choose.
	w := table.Workload{
		LoadFactor:      alpha,
		UnsuccessfulPct: unsucc,
		WriteHeavy:      false,
		Dynamic:         false,
		Dense:           false, // grid is dense-like per byte, not as an integer sequence
	}
	choice, path, err := table.Recommend(w)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload: static index, load factor %.0f%%, %d%% unknown probes\n", alpha*100, unsucc)
	fmt.Printf("decision graph recommends: %s with Mult\n", choice)
	for i, step := range path {
		fmt.Printf("  %d. %s\n", i+1, step)
	}

	// Build the key set: grid distribution (every byte in [1:14]).
	gen := dist.New(dist.Grid, 2024)
	keys := dist.Shuffled(gen.Keys(n), 1)
	probes := make([]uint64, 0, n)
	miss := n * unsucc / 100
	for i := 0; i < n-miss; i++ {
		probes = append(probes, keys[i])
	}
	probes = append(probes, gen.AbsentKeys(n, miss)...)
	probes = dist.Shuffled(probes, 2)

	// Race the recommendation against every other scheme on this exact
	// workload.
	fmt.Printf("\n%-12s %14s %14s\n", "scheme", "build [Mops]", "probe [Mops]")
	type rowResult struct {
		label string
		probe float64
	}
	var best rowResult
	for _, s := range []table.Scheme{
		table.SchemeLP, table.SchemeQP, table.SchemeRH, table.SchemeCuckooH4,
	} {
		m := table.MustOpen(
			table.WithScheme(s),
			table.WithCapacity(capacity),
			table.WithMaxLoadFactor(0), // memory is tight: fixed capacity
			table.WithSeed(11),
		)
		start := time.Now()
		for i, k := range keys {
			if _, err := m.Put(k, uint64(i)); err != nil {
				panic(fmt.Errorf("%s: insert %d: %w", s, k, err))
			}
		}
		buildMops := float64(n) / 1e6 / time.Since(start).Seconds()

		hits := 0
		start = time.Now()
		for _, k := range probes {
			if _, ok := m.Get(k); ok {
				hits++
			}
		}
		probeMops := float64(len(probes)) / 1e6 / time.Since(start).Seconds()
		if hits != n-miss {
			panic(fmt.Sprintf("%s: %d hits, want %d", s, hits, n-miss))
		}

		marker := ""
		if s == choice {
			marker = "  <- recommended"
		}
		fmt.Printf("%-12s %14.1f %14.1f%s\n", s, buildMops, probeMops, marker)
		if probeMops > best.probe {
			best = rowResult{string(s), probeMops}
		}
	}
	fmt.Printf("\nfastest probe side in this run: %s\n", best.label)
}

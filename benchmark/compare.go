package main

// -compare: two result sets (JSON lines, as -out appends them), per-metric
// medians and quartiles, and a verdict against the bounds the spec file
// declares. It is the check the noise record in README.md was made with.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return &s, nil
}

// resultSet maps workload → traced? → metric → one value per run.
type resultSet map[string]map[bool]map[string][]float64

func readSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("result set: %w", err)
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("result set %s line %d: %w", path, line, err)
		}
		if rec.Result == nil || !rec.Result.Correct {
			return nil, fmt.Errorf("result set %s line %d: not a correct run", path, line)
		}
		byTrace := set[rec.Workload]
		if byTrace == nil {
			byTrace = map[bool]map[string][]float64{false: {}, true: {}}
			set[rec.Workload] = byTrace
		}
		for name, m := range rec.Result.Metrics {
			byTrace[rec.Trace == 1][name] = append(byTrace[rec.Trace == 1][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("result set %s: %w", path, err)
	}
	return set, nil
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the benchmark contract is checked with.
// Fewer than two values have no spread: all three are the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareSets prints one row per workload × metric and reports whether
// every end-to-end median of b is within its bound of a's.
func compareSets(pathA, pathB, specPath string, w io.Writer) (bool, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-11s %-40s %-7s %12s %25s %12s %25s %8s %7s %6s\n",
		"workload", "metric", "unit", "A median", "A quartiles", "B median", "B quartiles", "B/A", "spread", "bound")
	same := true
	for _, wl := range sp.Workloads {
		for traced, metrics := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			for _, m := range metrics {
				va, vb := a[wl.Name][traced == 1][m.Name], b[wl.Name][traced == 1][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					if traced == 0 {
						return false, fmt.Errorf("%s/%s: missing from a result set", wl.Name, m.Name)
					}
					continue // traced runs are optional
				}
				a1, a2, a3 := quartiles(va)
				b1, b2, b3 := quartiles(vb)
				// The ratio's base is A's median; spread is the wider of
				// the two sets' interquartile ranges over its median.
				ratio := b2 / a2
				spread := math.Max((a3-a1)/a2, (b3-b1)/b2)
				verdict := ""
				if traced == 0 {
					verdict = fmt.Sprintf("%6.3f", m.Bound)
					if math.Abs(ratio-1) > m.Bound {
						verdict += " DIFFERS"
						same = false
					}
				}
				fmt.Fprintf(w, "%-11s %-40s %-7s %12.6g [%10.5g, %10.5g] %12.6g [%10.5g, %10.5g] %8.4f %7.4f %s\n",
					wl.Name, m.Name, m.Unit, a2, a1, a3, b2, b1, b3, ratio, spread, verdict)
			}
		}
	}
	return same, nil
}

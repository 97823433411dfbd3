package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeConfig is every workload at 1/64 of its size, two timed rounds.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, scale: 64, rounds: 2, traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that res holds exactly the declared metrics, each
// once (result.emit panics on a repeat), finite and in the declared unit.
func checkMetrics(t *testing.T, res *result, declared []specMetric, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a correct run", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared in BENCHMARK.json but not emitted", d.Name)
		case !metricName.MatchString(d.Name):
			t.Errorf("%s: not a valid metric name", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v is not finite", d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: value %v is not positive", d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload untraced at smoke scale and checks the
// output against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, declared := range sp.Workloads {
		t.Run(declared.Name, func(t *testing.T) {
			w, err := workloadByName(declared.Name)
			if err != nil {
				t.Fatal(err)
			}
			var stdout bytes.Buffer
			res, err := measure(w, smokeConfig(t), false, &stdout)
			if err != nil {
				t.Fatal(err)
			}
			// End-to-end metrics are never zero.
			checkMetrics(t, res, sp.EndToEnd, true)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line of output is not a JSON object: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[key]; !ok || len(last) != 4 {
					t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", last)
				}
			}
		})
	}
}

// TestSmokeTraced makes one traced run at smoke scale: it climbs every
// workload's ladder, whichever workload it is started for.
func TestSmokeTraced(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t)
	traced, err := measure(workloads[0], cfg, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Ladder taxes and retry counts may be zero or negative.
	checkMetrics(t, traced, sp.PerLayer, false)
	// live_query reached its mid-resize state; that the queries left it
	// there is one of the checked operations.
	if got := traced.Metrics["shard.migrating"].Value; got < liveMigrating {
		t.Errorf("shard.migrating = %v, want at least %d shards mid-resize", got, liveMigrating)
	}
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var spans []chromeEvent
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Errorf("trace output: %d spans, error %v", len(spans), err)
	}
}

// TestLiveQueryGivesUpCleanly finds a key stream that never has three
// shards mid-resize at once (about one in three) and checks that giving
// its handle up leaves no resize in flight, which would pin its tables.
func TestLiveQueryGivesUpCleanly(t *testing.T) {
	for stream := uint64(1); stream <= 20; stream++ {
		q, _, absent, err := fillLive(runConfig{seed: 1}, stream)
		if err != nil {
			t.Fatal(err)
		}
		if q.migrating >= liveMigrating {
			continue
		}
		if err := settle(q.handle, absent); err != nil {
			t.Fatal(err)
		}
		if st := q.handle.EngineStats(); st.Migrating != 0 {
			t.Errorf("stream %d: %d resizes still in flight after settle", stream, st.Migrating)
		}
		return
	}
	t.Skip("every key stream reached the mid-resize state")
}

// TestWrongAnswerFails corrupts one oracle expectation per workload: the
// run must report a failed operation and exit non-zero.
func TestWrongAnswerFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			cfg.corrupt = true
			var stdout, stderr bytes.Buffer
			if code := execute(w, cfg, 0, "", &stdout, &stderr); code == 0 {
				t.Errorf("exit code 0 after a wrong answer")
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d, want a failed operation", res.Correct, res.Failed)
			}
		})
	}
}

// TestCompare checks -compare on two result sets: equal sets pass, a
// metric moved past its bound fails.
func TestCompare(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, factor float64) string {
		path := filepath.Join(dir, name)
		for _, w := range sp.Workloads {
			for run := range 5 {
				res := &result{Correct: true, Attempted: 1}
				for _, m := range sp.EndToEnd {
					v := 100 + float64(run)
					if m.Name == "rows_per_s" && w.Name == "rw_resize" {
						v *= factor
					}
					res.emit(m.Name, m.Unit, v)
				}
				if err := appendRecord(path, record{Workload: w.Name, Seed: uint64(run), Result: res}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	var bound float64
	for _, m := range sp.EndToEnd {
		if m.Name == "rows_per_s" {
			bound = m.Bound
		}
	}
	base, same, moved := write("a.jsonl", 1), write("b.jsonl", 1), write("c.jsonl", 1+2*bound)
	var out bytes.Buffer
	if ok, err := compareSets(base, same, filepath.Join("..", specFile), &out); err != nil || !ok {
		t.Errorf("equal sets: same=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareSets(base, moved, filepath.Join("..", specFile), &out); err != nil || ok {
		t.Errorf("rows_per_s moved by twice its bound: same=%v err=%v", ok, err)
	}
	if !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("no row marked DIFFERS:\n%s", out.String())
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25 as Python's statistics.quantiles gives", q1, q2, q3)
	}
}

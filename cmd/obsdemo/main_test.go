package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/table"
)

func smallConfig(tracePath string) config {
	return config{
		threads:   2,
		initial:   256,
		ops:       2048,
		updatePct: 25,
		scheme:    string(table.SchemeLP),
		growAt:    0.85,
		seed:      1,
		tracePath: tracePath,
		traceCap:  1 << 12,
	}
}

func TestRunExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, smallConfig("")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE exec_tasks_total counter",
		"# TYPE exec_task_nanos summary",
		`shard_op_nanos{op="get",quantile="0.99"}`,
		"# TYPE shard_read_retries_total counter",
		"# TYPE shard_read_fallbacks_total counter",
		"# TYPE shard_view_republish_total counter",
		"# TYPE engine_entries gauge",
		"engine_migrations_done",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

func TestRunChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(&buf, smallConfig(path)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# trace:") {
		t.Fatalf("output missing trace summary line:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
		}
		if ev.Pid != 1 {
			t.Fatalf("event %+v has pid %d, want 1", ev, ev.Pid)
		}
	}
	// 2 prefill tasks + 2*chunksPerThread replay chunks, each a complete
	// event; thread metadata for both workers plus the process name.
	if wantTasks := 2 + 2*chunksPerThread; complete != wantTasks {
		t.Fatalf("trace has %d complete events, want %d", complete, wantTasks)
	}
	if meta < 3 {
		t.Fatalf("trace has %d metadata events, want process + 2 workers", meta)
	}
}

func TestRunRejectsBadThreads(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallConfig("")
	cfg.threads = 0
	if err := run(&buf, cfg); err == nil {
		t.Fatal("run accepted 0 threads")
	}
}

// TestRunRejectsBadTapes: flag values the tape generator cannot honour
// are errors from run, not panics inside it.
func TestRunRejectsBadTapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*config)
	}{
		{"update-pct 150", func(c *config) { c.updatePct = 150 }},
		{"update-pct -1", func(c *config) { c.updatePct = -1 }},
		{"ops -1", func(c *config) { c.ops = -1 }},
		{"initial -1", func(c *config) { c.initial = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig("")
			tc.edit(&cfg)
			var buf bytes.Buffer
			if err := run(&buf, cfg); err == nil {
				t.Fatal("run accepted it")
			}
		})
	}
}

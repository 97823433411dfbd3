package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/table"
)

func TestRunText(t *testing.T) {
	var buf bytes.Buffer
	w := table.Workload{LoadFactor: 0.9, UnsuccessfulPct: 25}
	if err := run(&buf, w, 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Recommendation: CH4Mult") {
		t.Fatalf("text output missing recommendation:\n%s", out)
	}
	if !strings.Contains(out, "Decision path:") {
		t.Fatalf("text output missing path:\n%s", out)
	}
	if strings.Contains(out, "Striping:") {
		t.Fatalf("single-threaded output should not recommend striping:\n%s", out)
	}
}

func TestRunTextThreads(t *testing.T) {
	var buf bytes.Buffer
	w := table.Workload{LoadFactor: 0.9, UnsuccessfulPct: 25}
	if err := run(&buf, w, 6, false); err != nil {
		t.Fatal(err)
	}
	// 6 threads -> power of two >= 12 -> 16 shards.
	if !strings.Contains(buf.String(), "WithPartitions(16)") {
		t.Fatalf("text output missing shard recommendation:\n%s", buf.String())
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	w := table.Workload{LoadFactor: 0.9, UnsuccessfulPct: 25}
	if err := run(&buf, w, 8, true); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Scheme string   `json:"scheme"`
		Family string   `json:"family"`
		Label  string   `json:"label"`
		Shards int      `json:"shards"`
		Path   []string `json:"path"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	// 90% load factor, read-mostly, 25% misses -> CuckooH4 per Figure 8,
	// and -json must agree with the graph itself.
	want, path, err := table.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != string(want) || got.Family != "Mult" || got.Label != "CH4Mult" {
		t.Fatalf("JSON choice = %+v, want %sMult", got, want)
	}
	if len(got.Path) != len(path) {
		t.Fatalf("JSON path %v, want %v", got.Path, path)
	}
	if got.Shards != 16 {
		t.Fatalf("JSON shards = %d, want 16 for 8 threads", got.Shards)
	}
	// The label is the payload's last field, where scripts reading the
	// line found it before.
	if line := strings.TrimSpace(buf.String()); !strings.HasSuffix(line, `,"label":"CH4Mult"}`) {
		t.Fatalf("JSON label not last: %s", line)
	}
}

func TestRunJSONInvalidWorkload(t *testing.T) {
	var buf bytes.Buffer
	for _, lf := range []float64{1.5, math.NaN()} {
		if err := run(&buf, table.Workload{LoadFactor: lf}, 1, true); err == nil {
			t.Fatalf("load factor %v: invalid workload should error", lf)
		}
	}
}

// TestLabels pins the paper-style labels: the scheme name plus the family,
// with Figure 8's CH4 abbreviation for CuckooH4.
func TestLabels(t *testing.T) {
	for _, c := range []struct {
		s    table.Scheme
		want string
	}{
		{table.SchemeCuckooH4, "CH4Mult"},
		{table.SchemeLP, "LPMult"},
		{table.SchemeChained24, "ChainedH24Mult"},
	} {
		if got := label(c.s, "Mult"); got != c.want {
			t.Errorf("label(%s) = %s, want %s", c.s, got, c.want)
		}
	}
}

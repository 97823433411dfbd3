package obs

import (
	"encoding/json"
	"expvar"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds a registry with one member of every kind, with
// deterministic recorded values, mirroring the real metric naming.
func goldenRegistry() *Registry {
	r := NewRegistry()
	tasks := NewCounter(2)
	tasks.Add(0, 40)
	tasks.Add(1, 2)
	r.RegisterCounter("exec_tasks_total", "tasks executed by the pool", tasks)
	steals := NewCounter(1)
	steals.Add(0, 7)
	r.RegisterCounter(`exec_events_total{kind="steal"}`, "scheduling events by kind", steals)
	errs := NewCounter(1)
	r.RegisterCounter(`exec_events_total{kind="error"}`, "", errs)
	r.RegisterFunc("engine_migrating_shards", "shards with a resize in flight", func() float64 { return 3 })
	lat := NewHistogram(1)
	for v := int64(1); v <= 1000; v++ {
		lat.Record(0, v)
	}
	r.RegisterHistogram(`shard_op_nanos{op="get"}`, "per-operation latency in nanoseconds", lat)
	r.RegisterFunc("engine_load_factor", "live entries over capacity", func() float64 { return 0.47 })
	return r
}

// TestRegistryGolden is the in-process /metrics "curl": it serves the
// handler through httptest and compares the exposition body against the
// checked-in golden file (refresh with -update-golden).
func TestRegistryGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	got := rec.Body.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryExpvar(t *testing.T) {
	r := goldenRegistry()
	const name = "obs_test_registry"
	r.PublishExpvar(name)
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("PublishExpvar did not publish")
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar payload is not JSON: %v\n%s", err, v.String())
	}
	if m["exec_tasks_total"] != float64(42) {
		t.Fatalf("exec_tasks_total = %v, want 42", m["exec_tasks_total"])
	}
	hist, ok := m[`shard_op_nanos{op="get"}`].(map[string]any)
	if !ok || hist["count"] != float64(1000) {
		t.Fatalf("histogram expvar payload = %v", m[`shard_op_nanos{op="get"}`])
	}
	// Re-publishing (same or another registry) must not panic.
	r.PublishExpvar(name)
	NewRegistry().PublishExpvar(name)
}

func TestRegistryMisusePanics(t *testing.T) {
	zero := func() float64 { return 0 }
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() {
		r := NewRegistry()
		r.RegisterFunc("x", "", zero)
		r.RegisterFunc("x", "", zero)
	})
	mustPanic("kind conflict", func() {
		r := NewRegistry()
		r.RegisterCounter(`f{a="1"}`, "", NewCounter(1))
		r.RegisterFunc(`f{a="2"}`, "", zero)
	})
	mustPanic("malformed labels", func() {
		NewRegistry().RegisterFunc("f{oops", "", zero)
	})
	mustPanic("empty family", func() {
		NewRegistry().RegisterFunc(`{a="1"}`, "", zero)
	})
}

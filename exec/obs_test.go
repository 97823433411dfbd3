package exec_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/exec"
)

func newInstrumented(t *testing.T, workers int, ctx context.Context) (*exec.Pool, *exec.PoolMetrics, *exec.Trace) {
	t.Helper()
	m := exec.NewPoolMetrics(workers)
	tr := exec.NewTrace(workers, 4096)
	p := exec.NewPool(exec.Config{Workers: workers, Ctx: ctx, Metrics: m, Trace: tr})
	t.Cleanup(p.Close)
	return p, m, tr
}

func TestPoolMetricsCounts(t *testing.T) {
	p, m, _ := newInstrumented(t, 4, context.Background())
	const tasks = 64
	if err := p.ForEach(tasks, func(w, task int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Tasks.Value(); got != tasks {
		t.Fatalf("Tasks = %d, want %d", got, tasks)
	}
	if got := m.Submissions.Value(); got != 1 {
		t.Fatalf("Submissions = %d, want 1", got)
	}
	if snap := m.TaskNanos.Snapshot(); snap.Count != tasks {
		t.Fatalf("TaskNanos count = %d, want %d", snap.Count, tasks)
	}
	if snap := m.QueueWait.Snapshot(); snap.Count != tasks {
		t.Fatalf("QueueWait count = %d, want %d", snap.Count, tasks)
	}
	if m.Steals.Value() > m.Tasks.Value() {
		t.Fatalf("Steals %d exceeds Tasks %d", m.Steals.Value(), m.Tasks.Value())
	}
}

func TestPoolMetricsInlinePath(t *testing.T) {
	// One worker forces the inline fast path: telemetry must still flow.
	p, m, tr := newInstrumented(t, 1, context.Background())
	if err := p.ForEach(10, func(w, task int) error {
		time.Sleep(time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Tasks.Value(); got != 10 {
		t.Fatalf("inline Tasks = %d, want 10", got)
	}
	if m.BusyNanos.ValueAt(0) == 0 {
		t.Fatal("inline BusyNanos stayed zero across sleeping tasks")
	}
	var taskEvents int
	for _, ev := range tr.Events() {
		if ev.Kind == exec.EvTask {
			taskEvents++
		}
	}
	if taskEvents != 10 {
		t.Fatalf("inline trace task events = %d, want 10", taskEvents)
	}
}

func TestPoolMetricsErrorAndPanic(t *testing.T) {
	p, m, _ := newInstrumented(t, 4, context.Background())
	boom := errors.New("boom")
	if err := p.ForEach(16, func(w, task int) error {
		if task == 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if m.Errors.Value() == 0 {
		t.Fatal("Errors stayed zero after a failing task")
	}
	err := p.ForEach(16, func(w, task int) error {
		if task == 3 {
			panic("kaboom")
		}
		return nil
	})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if m.Panics.Value() == 0 {
		t.Fatal("Panics stayed zero after a panicking task")
	}
}

func TestPoolMetricsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, m, tr := newInstrumented(t, 4, ctx)
	err := p.ForEach(256, func(w, task int) error {
		if task == 0 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := m.Cancels.Value(); got != 1 {
		t.Fatalf("Cancels = %d, want exactly 1 per cancelled submission", got)
	}
	var sawCancel bool
	for _, ev := range tr.Events() {
		if ev.Kind == exec.EvCancel {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatal("no EvCancel event in trace")
	}
}

func TestTraceEventsCoverTasks(t *testing.T) {
	p, _, tr := newInstrumented(t, 4, context.Background())
	const n = 100_000
	if err := p.ForMorsels(n, func(w, lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, ev := range tr.Events() {
		if ev.Kind == exec.EvTask {
			if ev.End < ev.Start {
				t.Fatalf("task %d: End %d < Start %d", ev.Task, ev.End, ev.Start)
			}
			seen[ev.Task] = true
		}
	}
	morsels := (n + p.MorselSize() - 1) / p.MorselSize()
	if len(seen) != morsels {
		t.Fatalf("trace covers %d distinct tasks, want %d morsels", len(seen), morsels)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d with ample capacity", tr.Dropped())
	}
}

func TestTraceDropsWhenFull(t *testing.T) {
	tr := exec.NewTrace(2, 64) // 64 is the floor capacity
	p := exec.NewPool(exec.Config{Workers: 2, Ctx: context.Background(), Trace: tr})
	defer p.Close()
	if err := p.ForEach(1000, func(w, task int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops on a 64-slot ring after 1000 tasks")
	}
	evs := tr.Events()
	if len(evs) == 0 || len(evs) > 2*64 {
		t.Fatalf("Events() returned %d events from 2 rings of 64", len(evs))
	}
}

func TestTraceChromeJSON(t *testing.T) {
	p, _, tr := newInstrumented(t, 2, context.Background())
	if err := p.ForEach(8, func(w, task int) error {
		time.Sleep(50 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Fatalf("complete event %q has negative dur", ev.Name)
			}
		case "i":
			instant++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta < 3 { // process_name + one thread_name per worker
		t.Fatalf("metadata events = %d, want >= 3", meta)
	}
	if complete != 8 {
		t.Fatalf("complete (task) events = %d, want 8", complete)
	}
	if instant == 0 {
		t.Fatal("no instant (claim/steal) events recorded")
	}
}

package exec_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/exec"
)

// TestForEachCoversEachTaskOnce: every task index runs exactly once, no
// matter how tasks and workers divide.
func TestForEachCoversEachTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, tasks := range []int{0, 1, 2, 7, 64, 1000} {
			p := exec.NewPool(exec.Config{Workers: workers})
			counts := make([]atomic.Int32, tasks)
			if err := p.ForEach(tasks, func(w, task int) error {
				if w < 0 || w >= p.Workers() {
					t.Errorf("worker index %d outside [0,%d)", w, p.Workers())
				}
				counts[task].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d tasks=%d: %v", workers, tasks, err)
			}
			p.Close()
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, got)
				}
			}
		}
	}
}

// TestForMorselsCoversRange: morsels tile [0, n) exactly, each no wider
// than the configured morsel size.
func TestForMorselsCoversRange(t *testing.T) {
	const n = 10_000
	p := exec.NewPool(exec.Config{Workers: 4, MorselSize: 256})
	defer p.Close()
	covered := make([]atomic.Int32, n)
	if err := p.ForMorsels(n, func(_, lo, hi int) error {
		if hi-lo > p.MorselSize() || hi-lo <= 0 {
			t.Errorf("morsel [%d,%d) has width %d, want (0,%d]", lo, hi, hi-lo, p.MorselSize())
		}
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range covered {
		if got := covered[i].Load(); got != 1 {
			t.Fatalf("index %d covered %d times", i, got)
		}
	}
}

// TestSingleWorkerRunsInOrder: with one worker the schedule is the serial
// order — the oracle the parallel schedules are tested against.
func TestSingleWorkerRunsInOrder(t *testing.T) {
	p := exec.NewPool(exec.Config{Workers: 1})
	defer p.Close()
	var order []int
	if err := p.ForEach(50, func(_, task int) error {
		order = append(order, task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, task := range order {
		if task != i {
			t.Fatalf("single-worker schedule out of order at %d: got task %d", i, task)
		}
	}
}

// TestFirstErrorPropagation: a failing task's error is returned and stops
// the scheduling of further tasks.
func TestFirstErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		p := exec.NewPool(exec.Config{Workers: workers})
		var ran atomic.Int32
		err := p.ForEach(1000, func(_, task int) error {
			ran.Add(1)
			if task == 3 {
				return sentinel
			}
			return nil
		})
		p.Close()
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error = %v, want %v", workers, err, sentinel)
		}
		// The inline single-worker path stops deterministically at the
		// failing task; the parallel path stops scheduling as soon as the
		// failure is observed, which is timing-dependent, so only the
		// serial count is asserted exactly.
		if workers == 1 {
			if n := ran.Load(); n != 4 {
				t.Fatalf("serial path ran %d tasks after error at task 3, want 4", n)
			}
		}
	}
}

// TestPoolCloseLeaksNoGoroutines is the shutdown contract: after Close
// returns, every worker goroutine has exited.
func TestPoolCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		p := exec.NewPool(exec.Config{Workers: 16})
		if err := p.ForMorsels(1<<12, func(_, lo, hi int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	// Close waits for worker exit, but the runtime may account a dying
	// goroutine for a moment; poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after pool shutdowns", before, now)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLocalsPerWorker: per-worker accumulators see every index exactly
// once between them, and at most one accumulator exists per worker.
func TestLocalsPerWorker(t *testing.T) {
	const n = 5000
	p := exec.NewPool(exec.Config{Workers: 4, MorselSize: 64})
	defer p.Close()
	inits := make([]atomic.Int32, p.Workers())
	locals, err := exec.Locals(p, n,
		func(w int) (*[]int, error) {
			inits[w].Add(1)
			s := make([]int, 0, n)
			return &s, nil
		},
		func(s *[]int, _, lo, hi int) error {
			for i := lo; i < hi; i++ {
				*s = append(*s, i)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) > p.Workers() {
		t.Fatalf("%d locals for %d workers", len(locals), p.Workers())
	}
	for w := range inits {
		if got := inits[w].Load(); got > 1 {
			t.Fatalf("worker %d initialized %d accumulators", w, got)
		}
	}
	seen := make([]bool, n)
	for _, s := range locals {
		for _, i := range *s {
			if seen[i] {
				t.Fatalf("index %d folded twice", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never folded", i)
		}
	}
}

// TestRunTasks: the transient-pool convenience runs every task once and
// tolerates zero tasks.
func TestRunTasks(t *testing.T) {
	if err := exec.RunTasks(exec.Config{}, 0, func(_, _ int) error {
		t.Error("fn called for zero tasks")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var tasks atomic.Int64
	if err := exec.RunTasks(exec.Config{Workers: 3}, 17, func(_, task int) error {
		tasks.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tasks.Load() != 17 {
		t.Fatalf("RunTasks ran %d tasks, want 17", tasks.Load())
	}
}

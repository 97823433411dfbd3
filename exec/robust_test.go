package exec_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/exec"
	"repro/internal/fault"
)

// TestPoolCloseIdempotent is the regression for the double-Close panic:
// Close must be callable any number of times, sequentially or
// concurrently, and every call must wait for worker shutdown.
func TestPoolCloseIdempotent(t *testing.T) {
	p := exec.NewPool(exec.Config{Workers: 4})
	if err := p.ForEach(16, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // must not panic on the closed channel

	p = exec.NewPool(exec.Config{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
}

// TestPanicContained: a panicking task must come back as a typed
// *PanicError carrying the task index and a stack trace — on both the
// parallel and the serial inline path — and the pool must stay usable.
func TestPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := exec.NewPool(exec.Config{Workers: workers})
		err := p.ForEach(8, func(_, task int) error {
			if task == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error = %v, want *PanicError", workers, err)
		}
		if pe.Task != 3 {
			t.Errorf("workers=%d: PanicError.Task = %d, want 3", workers, pe.Task)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: PanicError.Value = %v, want boom", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError.Stack is empty", workers)
		}
		if !strings.Contains(pe.Error(), "task 3") {
			t.Errorf("workers=%d: Error() = %q, want task index in message", workers, pe.Error())
		}
		// Containment means the pool survives: the workers recovered, so
		// the next submission runs normally.
		if err := p.ForEach(8, func(_, _ int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: pool unusable after contained panic: %v", workers, err)
		}
		p.Close()
	}
}

// TestInjectedPanic: the armed fault injector's Panic kind fires inside
// the worker before the callback runs, and surfaces through the same
// *PanicError containment.
func TestInjectedPanic(t *testing.T) {
	var rates [fault.NumKinds]float64
	rates[fault.Panic] = 1.0
	fault.Arm(fault.Config{Seed: 9, Rates: rates})
	defer fault.Disarm()

	var ran atomic.Int64
	p := exec.NewPool(exec.Config{Workers: 4})
	defer p.Close()
	err := p.ForEach(4, func(_, _ int) error {
		ran.Add(1)
		return nil
	})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), fault.ErrInjected.Error()) {
		t.Errorf("PanicError.Value = %v, want injected-fault marker", pe.Value)
	}
	// The injected panic fires before the callback: a panicked task is
	// never half-applied.
	if n := ran.Load(); n >= 4 {
		t.Errorf("all %d tasks ran despite rate-1.0 injected panics", n)
	}
}

// TestForEachCtxCancel: cancelling the pool's context stops the claim
// cursor like a first error — running tasks finish, unclaimed tasks never
// start — and the context's error is returned.
func TestForEachCtxCancel(t *testing.T) {
	const workers, tasks = 4, 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := exec.NewPool(exec.Config{Workers: workers, Ctx: ctx})
	defer p.Close()

	var ran atomic.Int64
	err := p.ForEach(tasks, func(_, task int) error {
		ran.Add(1)
		if task == 0 {
			cancel()
			return nil
		}
		<-ctx.Done() // running tasks observe cancellation and finish
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// Claims stop after cancellation: at most the workers' in-flight
	// tasks (plus one claim racing the cancel per worker) ever ran.
	if n := ran.Load(); n >= tasks {
		t.Errorf("all %d tasks ran despite cancellation", n)
	}
}

// TestPoolCtxPreCancelled: a pool-level Config.Ctx that is already
// cancelled refuses every submission upfront, running nothing, on both
// the parallel and serial paths.
func TestPoolCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		p := exec.NewPool(exec.Config{Workers: workers, Ctx: ctx})
		var ran atomic.Int64
		err := p.ForEach(16, func(_, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("workers=%d: %d tasks ran under a pre-cancelled pool context", workers, n)
		}
		p.Close()
	}
}

// TestSuppressedErrors: when several tasks fail concurrently, the first
// error wins the return slot and the rest are counted on the returned
// *SuppressedError instead of silently dropped.
func TestSuppressedErrors(t *testing.T) {
	const tasks = 4
	p := exec.NewPool(exec.Config{Workers: tasks})
	defer p.Close()

	var barrier sync.WaitGroup
	barrier.Add(tasks)
	err := p.ForEach(tasks, func(_, task int) error {
		// All tasks are in flight before any fails, so every failure
		// after the first must be suppressed-and-counted.
		barrier.Done()
		barrier.Wait()
		return fmt.Errorf("task %d failed", task)
	})
	var se *exec.SuppressedError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *SuppressedError", err)
	}
	if se.Count != tasks-1 {
		t.Errorf("SuppressedError.Count = %d, want %d", se.Count, tasks-1)
	}
	if se.First == nil || !errors.Is(err, se.First) {
		t.Errorf("SuppressedError.First = %v, not reachable via Unwrap", se.First)
	}
	if !strings.Contains(err.Error(), "+3 suppressed") {
		t.Errorf("Error() = %q, want suppressed count in message", err.Error())
	}
}

package pipe_test

// Mid-stream failure semantics: cancellation between morsels surfaces as
// the context error from the terminal, a panicking stage anywhere in the
// chain is contained by the pool and surfaces as *exec.PanicError, a
// table refusal as the typed ErrFull chain, and none of them leaves the
// process wedged — the pool's first-error convention.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/agg"
	"repro/exec"
	"repro/internal/fault"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

func bigColumn(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	return keys
}

func TestCancelMidStream(t *testing.T) {
	keys := bigColumn(200_000)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		err := pipe.FromColumns(keys, nil).
			Filter(func(_, _ uint64) bool {
				if seen.Add(1) == 10_000 {
					cancel()
				}
				return true
			}).
			Drain(pipe.Config{Workers: workers, MorselSize: 512, Ctx: ctx})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := seen.Load(); n >= int64(len(keys)) {
			t.Fatalf("workers=%d: scan ran to completion (%d rows) despite cancellation", workers, n)
		}
	}
}

func TestCancelMidHandleScan(t *testing.T) {
	// The serial handle walk checks cancellation at every morsel flush.
	h := table.MustOpen(table.WithSeed(5))
	for i := uint64(1); i <= 50_000; i++ {
		if _, err := h.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := pipe.FromHandle(h).
		Filter(func(_, _ uint64) bool {
			if seen.Add(1) == 1_000 {
				cancel()
			}
			return true
		}).
		Drain(pipe.Config{Workers: 1, MorselSize: 128, Ctx: ctx})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= 50_000 {
		t.Fatalf("handle scan ran to completion (%d rows) despite cancellation", n)
	}
}

func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := pipe.FromColumns(bigColumn(1024), nil).Collect(pipe.Config{Workers: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestJoinCancelBeforeRun: a pre-cancelled Config.Ctx stops a join before
// its build phase runs a morsel, serial or parallel.
func TestJoinCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := pipe.FromColumns(bigColumn(10_000), nil)
	for _, workers := range []int{1, 4} {
		err := pipe.HashJoin(rows, rows, pipe.JoinConfig{}).Drain(pipe.Config{Workers: workers, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// checkInjectedRefusal runs a query with table refusals injected at rate
// 1.0 (the stand-in for a full growth-disabled table), at one worker and at
// four: the refusal must surface from the terminal as the typed
// *table.FullError chain, and the same query must succeed once the
// injector is disarmed.
func checkInjectedRefusal(t *testing.T, run func(pipe.Config) error) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		cfg := pipe.Config{Workers: workers, MorselSize: 512}
		var rates [fault.NumKinds]float64
		rates[fault.Full] = 1.0
		fault.Arm(fault.Config{Seed: 3, Rates: rates})
		err := run(cfg)
		fault.Disarm()
		var fe *table.FullError
		if !errors.As(err, &fe) || !errors.Is(err, table.ErrFull) {
			t.Fatalf("workers=%d: err = %v, want a *table.FullError wrapping ErrFull", workers, err)
		}
		if err := run(cfg); err != nil {
			t.Fatalf("workers=%d after disarm: %v", workers, err)
		}
	}
}

// TestJoinBuildRefusalSurfaces: an injected refusal in a join's build table
// surfaces typed at every worker count. It was no table's size (Len -1), so
// it starts no re-run, and the join cannot loop on it.
func TestJoinBuildRefusalSurfaces(t *testing.T) {
	rows := pipe.FromColumns(bigColumn(10_000), nil)
	checkInjectedRefusal(t, pipe.HashJoin(rows, rows, pipe.JoinConfig{}).Drain)
}

// TestGroupByRefusalSurfaces: a refusal in a group-by's index surfaces
// typed, through the per-worker partial aggregates at four workers.
func TestGroupByRefusalSurfaces(t *testing.T) {
	rows := pipe.FromColumns(bigColumn(10_000), nil)
	checkInjectedRefusal(t, func(cfg pipe.Config) error {
		_, err := rows.GroupBy(cfg, pipe.GroupConfig{})
		return err
	})
}

func TestPanicInStage(t *testing.T) {
	keys := bigColumn(10_000)
	for _, workers := range []int{1, 8} {
		err := pipe.FromColumns(keys, nil).
			Map(func(k, v uint64) (uint64, uint64) {
				if k == 7_777 {
					panic("stage boom")
				}
				return k, v
			}).
			Drain(pipe.Config{Workers: workers, MorselSize: 256})
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *exec.PanicError", workers, err)
		}
		if pe.Value != "stage boom" {
			t.Fatalf("workers=%d: PanicError.Value = %v, want stage boom", workers, pe.Value)
		}
	}
}

func TestPanicInJoinProbeStage(t *testing.T) {
	// A panic downstream of the probe must not leak the build table's
	// state or wedge the probe pass.
	build := join.Relation{{Key: 1, Payload: 1}, {Key: 2, Payload: 2}}
	probe := make(join.Relation, 5_000)
	for i := range probe {
		probe[i] = join.Row{Key: uint64(i%2) + 1, Payload: uint64(i)}
	}
	for _, workers := range []int{1, 8} {
		err := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe), pipe.JoinConfig{}).
			Filter(func(_, v uint64) bool {
				if v == 4_000 {
					panic("probe boom")
				}
				return true
			}).
			Drain(pipe.Config{Workers: workers})
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *exec.PanicError", workers, err)
		}
	}
}

func TestPanicInGroupDrain(t *testing.T) {
	// The serial group drain runs as a pool task: a panicking downstream
	// stage is contained the same way as in parallel scans.
	err := pipe.GroupByStream(
		pipe.FromColumns(bigColumn(1_000), nil), pipe.GroupConfig{}, agg.Count,
	).
		Map(func(k, v uint64) (uint64, uint64) {
			if k == 500 {
				panic("drain boom")
			}
			return k, v
		}).
		Drain(pipe.Config{Workers: 1})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *exec.PanicError", err)
	}
}

func TestSinkErrorStopsRun(t *testing.T) {
	sentinel := errors.New("sink refused")
	var calls atomic.Int64
	err := pipe.FromColumns(bigColumn(100_000), nil).
		Sink(pipe.Config{Workers: 4, MorselSize: 512}, func(_ int, _, _ []uint64) error {
			if calls.Add(1) == 3 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's sentinel", err)
	}
	if n := calls.Load(); n >= 100_000/512 {
		t.Fatalf("sink called %d times after first error; run did not stop early", n)
	}
}

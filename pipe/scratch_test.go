package pipe_test

// The operators' batches and the join's probe scratch come from package
// pools and go back when an operator's run ends, so plans running side by
// side hand each other their scratch. A run that is cancelled or whose
// stage panics returns its scratch too, half written. Every plan that
// completes must still equal the oracle (join.NestedLoopJoin folded into a
// scalar group-by, oracleStates); under -race, a batch still in use
// when it went back to a pool shows up as a race.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/agg"
	"repro/exec"
	"repro/pipe"
	"repro/table"
)

func TestPooledScratchAcrossConcurrentPlans(t *testing.T) {
	const goroutines, plans = 4, 20
	customers := makeCustomers()
	orders := makeOrders(rand.New(rand.NewSource(7)))
	want := oracleStates(t, customers, orders)
	// A single-partition handle holding the customers: behind a stage it
	// is scanned serially, as one pool task.
	h := table.MustOpen(table.WithSeed(3), table.WithCapacity(2*diffCustomers))
	for _, c := range customers {
		if _, err := h.Put(c.Key, c.Payload); err != nil {
			t.Fatal(err)
		}
	}
	bySegment := func(_, segment, cents uint64) (uint64, uint64) { return segment, cents }
	kept := func(_, cents uint64) bool { return cents >= diffCut }
	gcfg := pipe.GroupConfig{ExpectedGroups: diffSegments}

	// joined is the query's join and filter over a probe side whose stage
	// sees every order first (hook may cancel the run or panic).
	joined := func(build *pipe.Stream, hook func()) *pipe.Stream {
		probe := pipe.FromRelation(orders).Filter(func(_, _ uint64) bool { hook(); return true })
		return pipe.HashJoin(build, probe, pipe.JoinConfig{Project: bySegment}).Filter(kept)
	}
	queries := []struct {
		name string
		run  func(cfg pipe.Config, hook func()) error
	}{
		{"join-filter-map", func(cfg pipe.Config, hook func()) error {
			// The join's matches go through a Filter and a Map that
			// rewrite its batch in place; the Map's shift is undone below.
			g, err := pipe.HashJoin(pipe.FromRelation(customers),
				pipe.FromRelation(orders).Filter(func(_, _ uint64) bool { hook(); return true }),
				pipe.JoinConfig{Project: func(k, b, p uint64) (uint64, uint64) { return b + 100, p }}).
				Filter(kept).
				Map(func(k, v uint64) (uint64, uint64) { return k - 100, v }).
				GroupBy(cfg, gcfg)
			if err == nil {
				err = sameStates(g, want)
			}
			return err
		}},
		{"group-by-stream", func(cfg pipe.Config, hook func()) error {
			// Each segment's SUM streams out of the groups drain's batch.
			g, err := pipe.GroupByStream(joined(pipe.FromRelation(customers), hook), gcfg, agg.Sum).
				GroupBy(cfg, gcfg)
			if err != nil {
				return err
			}
			if g.NumGroups() != want.NumGroups() {
				return fmt.Errorf("%d groups, oracle %d", g.NumGroups(), want.NumGroups())
			}
			for seg, ws := range want.Groups() {
				if gs, ok := g.Get(seg); !ok || gs.Sum != ws.Sum {
					return fmt.Errorf("segment %d: sum %+v, oracle %d", seg, gs, ws.Sum)
				}
			}
			return nil
		}},
		{"single-partition-handle", func(cfg pipe.Config, hook func()) error {
			build := pipe.FromHandle(h).Filter(func(_, _ uint64) bool { return true })
			g, err := joined(build, hook).GroupBy(cfg, gcfg)
			if err == nil {
				err = sameStates(g, want)
			}
			return err
		}},
	}

	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range plans {
				q := queries[(i+j)%len(queries)]
				// Alternate the morsel so the pools hold batches too small
				// for half the runs.
				cfg := pipe.Config{Workers: 2, MorselSize: []int{512, 4096}[(i+j/3)%2]}
				label := fmt.Sprintf("goroutine %d plan %d (%s, morsel %d)", i, j, q.name, cfg.MorselSize)
				var seen atomic.Int64
				switch (i + j) % 4 {
				case 0: // cancelled mid-stream
					ctx, cancel := context.WithCancel(context.Background())
					cfg.Ctx = ctx
					err := q.run(cfg, func() {
						if seen.Add(1) == diffOrders/2 {
							cancel()
						}
					})
					cancel()
					if !errors.Is(err, context.Canceled) {
						t.Errorf("%s: err = %v, want context.Canceled", label, err)
					}
				case 1: // a stage panics mid-stream
					err := q.run(cfg, func() {
						if seen.Add(1) == diffOrders/2 {
							panic("stage fault")
						}
					})
					var pe *exec.PanicError
					if !errors.As(err, &pe) {
						t.Errorf("%s: err = %v, want *exec.PanicError", label, err)
					}
				default:
					if err := q.run(cfg, func() {}); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// sameStates is sameGroups as an error, for checks off the test's
// goroutine.
func sameStates(got, want *agg.GroupBy) error {
	if got.NumGroups() != want.NumGroups() {
		return fmt.Errorf("%d groups, oracle %d", got.NumGroups(), want.NumGroups())
	}
	for key, ws := range want.Groups() {
		if gs, ok := got.Get(key); !ok || *gs != *ws {
			return fmt.Errorf("group %d state %+v, oracle %+v", key, gs, ws)
		}
	}
	return nil
}

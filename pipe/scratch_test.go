package pipe_test

// The operators' batches, the join's probe answers and the group-by
// locals come from the package's free lists and go back when a run ends,
// so plans running side by side hand each other their scratch. A run that
// is cancelled or whose stage panics gives its batches back too, half
// written, and its group-by locals not at all. Every plan that completes
// must still equal the oracle (join.NestedLoopJoin folded into a scalar
// group-by, oracleStates), and so must every GroupBy result once all the
// plans are done: a result is its caller's, and a list that handed it to
// a later run would reset it. Under -race, a batch or local serving two
// runs at once shows up as a race.

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
	// A query runs one plan and returns the check of its result, which
	// the caller runs at once and again after every plan is done.
	type check func() error
	queries := []struct {
		name string
		run  func(cfg pipe.Config, hook func()) (check, error)
	}{
		{"join-filter-map", func(cfg pipe.Config, hook func()) (check, error) {
			// The join's matches go through a Filter and a Map that
			// rewrite its batch in place; the Map's shift is undone below.
			g, err := pipe.HashJoin(pipe.FromRelation(customers),
				pipe.FromRelation(orders).Filter(func(_, _ uint64) bool { hook(); return true }),
				pipe.JoinConfig{Project: func(k, b, p uint64) (uint64, uint64) { return b + 100, p }}).
				Filter(kept).
				Map(func(k, v uint64) (uint64, uint64) { return k - 100, v }).
				GroupBy(cfg, gcfg)
			return func() error { return sameStates(g, want) }, err
		}},
		{"group-by-stream", func(cfg pipe.Config, hook func()) (check, error) {
			// Each segment's SUM streams out of the groups drain's batch,
			// and the drained aggregation goes back to the list.
			g, err := pipe.GroupByStream(joined(pipe.FromRelation(customers), hook), gcfg, agg.Sum).
				GroupBy(cfg, gcfg)
			return func() error { return sameSums(g, want) }, err
		}},
		{"group-by-stream-chained", func(cfg pipe.Config, hook func()) (check, error) {
			// The same under another index scheme and no size: its locals
			// go to the same list as the others' and serve them once reset.
			chained := pipe.GroupConfig{Scheme: table.SchemeChained24}
			g, err := pipe.GroupByStream(joined(pipe.FromRelation(customers), hook), chained, agg.Sum).
				GroupBy(cfg, chained)
			return func() error { return sameSums(g, want) }, err
		}},
		{"single-partition-handle", func(cfg pipe.Config, hook func()) (check, error) {
			build := pipe.FromHandle(h).Filter(func(_, _ uint64) bool { return true })
			g, err := joined(build, hook).GroupBy(cfg, gcfg)
			return func() error { return sameStates(g, want) }, err
		}},
	}

	var (
		mu      sync.Mutex
		results []check
	)
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
				switch (i + j/len(queries)) % 4 { // every query meets every case
				case 0: // cancelled mid-stream
					ctx, cancel := context.WithCancel(context.Background())
					cfg.Ctx = ctx
					_, err := q.run(cfg, func() {
						if seen.Add(1) == diffOrders/2 {
							cancel()
						}
					})
					cancel()
					if !errors.Is(err, context.Canceled) {
						t.Errorf("%s: err = %v, want context.Canceled", label, err)
					}
				case 1: // a stage panics mid-stream
					_, err := q.run(cfg, func() {
						if seen.Add(1) == diffOrders/2 {
							panic("stage fault")
						}
					})
					var pe *exec.PanicError
					if !errors.As(err, &pe) {
						t.Errorf("%s: err = %v, want *exec.PanicError", label, err)
					}
				default:
					ok, err := q.run(cfg, func() {})
					if err == nil {
						err = ok()
					}
					if err != nil {
						t.Errorf("%s: %v", label, err)
						continue
					}
					mu.Lock()
					results = append(results, func() error {
						if err := ok(); err != nil {
							return fmt.Errorf("%s, after every plan: %w", label, err)
						}
						return nil
					})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, ok := range results {
		if err := ok(); err != nil {
			t.Error(err)
		}
	}
}

// sameSums checks a group-by over a GroupByStream of each segment's SUM
// against the oracle's sums.
func sameSums(g, want *agg.GroupBy) error {
	if g.NumGroups() != want.NumGroups() {
		return fmt.Errorf("%d groups, oracle %d", g.NumGroups(), want.NumGroups())
	}
	for seg, ws := range want.Groups() {
		if gs, ok := g.Get(seg); !ok || gs.Sum != ws.Sum {
			return fmt.Errorf("segment %d: sum %+v, oracle %d", seg, gs, ws.Sum)
		}
	}
	return nil
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

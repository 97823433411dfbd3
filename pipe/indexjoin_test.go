package pipe_test

// The indexed join: HashJoin over a bare FromHandle build side probes the
// handle in place. It must emit exactly the rows of the join that builds
// a private table from the handle's entries, and of the nested-loop
// oracle; it must leave the handle untouched, and a stage on the build
// side must bring the private build back. The two-worker runs over the
// unsharded handle are the -race check of concurrent read-only GetBatch
// on one table.

import (
	"sync"
	"testing"

	"repro/join"
	"repro/pipe"
	"repro/table"
)

// midResizeHandle opens a four-shard handle and stops it with shards 0..2
// mid-resize and their dead overlays populated: in each, keys deleted
// while frozen, some of them re-inserted under new values, one frozen key
// updated. It returns the handle and the keys left deleted. A twin handle
// with the same seed routes alike, which is how a key's shard is known.
func midResizeHandle(t *testing.T) (*table.Handle, []uint64) {
	t.Helper()
	const shards, seed = 4, 77
	open := func() *table.Handle {
		return table.MustOpen(table.WithPartitions(shards), table.WithCapacity(shards<<12), table.WithSeed(seed))
	}
	keys := make([]uint64, shards*4000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	twin := open()
	if _, err := twin.PutBatch(keys, keys); err != nil {
		t.Fatal(err)
	}
	h := open()
	var gone []uint64
	for j := range shards {
		var pool []uint64
		twin.Engine().RangeShard(j, func(k, _ uint64) bool {
			pool = append(pool, k)
			return true
		})
		if j == shards-1 {
			// The one steady shard: well below its threshold.
			pool = pool[:1000]
			if _, err := h.PutBatch(pool, pool); err != nil {
				t.Fatal(err)
			}
			break
		}
		n := 0
		for ; h.EngineStats().Migrating == j; n++ {
			if n == len(pool) {
				t.Fatalf("shard %d took its %d keys without resizing", j, n)
			}
			if _, err := h.Put(pool[n], pool[n]); err != nil {
				t.Fatal(err)
			}
		}
		// Each of these hosts one 256-entry step of the shard's resize,
		// which has thousands of entries to move.
		for i, k := range pool[:6] {
			if !h.Delete(k) {
				t.Fatalf("shard %d: Delete(%#x) found nothing", j, k)
			}
			if i%2 == 0 {
				gone = append(gone, k)
			} else if _, err := h.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.Put(pool[6], pool[6]+2); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.EngineStats(); st.Migrating != shards-1 {
		t.Fatalf("%d shards mid-resize, want %d", st.Migrating, shards-1)
	}
	return h, gone
}

// handleEntries returns what a Range over h yields, as columns.
func handleEntries(h *table.Handle) (keys, vals []uint64) {
	h.Range(func(k, v uint64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	return keys, vals
}

// probeSide builds a probe relation over a handle's entries: every key
// zero to three times, dangling keys (the given ones, and keys never
// inserted) in between.
func probeSide(entryKeys, dangling []uint64) join.Relation {
	var rel join.Relation
	for i, k := range entryKeys {
		for range i % 4 {
			rel = append(rel, join.Row{Key: k, Payload: uint64(len(rel))})
		}
		if i%5 == 0 {
			rel = append(rel, join.Row{Key: k ^ 1<<63, Payload: uint64(len(rel))})
		}
	}
	for _, k := range dangling {
		rel = append(rel, join.Row{Key: k, Payload: uint64(len(rel))})
	}
	return rel
}

func TestIndexJoinMatchesBuiltJoinAndOracle(t *testing.T) {
	fill := func(h *table.Handle, n int) *table.Handle {
		for i := range uint64(n) {
			if _, err := h.Put(i*0x9e3779b97f4a7c15, i); err != nil { // key 0 among them
				t.Fatal(err)
			}
		}
		return h
	}
	midResize, gone := midResizeHandle(t)
	handles := []struct {
		name     string
		h        *table.Handle
		dangling []uint64
	}{
		{"unsharded", fill(table.MustOpen(table.WithCapacity(1<<12)), 5000), nil},
		{"sharded", fill(table.MustOpen(table.WithPartitions(4), table.WithCapacity(1<<14)), 5000), nil},
		{"mid-resize", midResize, gone},
	}
	projections := []struct {
		name    string
		project func(key, buildVal, probeVal uint64) (uint64, uint64)
	}{
		{"default", nil},
		{"custom", func(k, b, p uint64) (uint64, uint64) { return b, p + k }},
	}
	for _, hc := range handles {
		if hc.h.Engine() != nil && hc.h.EngineStats().Migrating > 0 != (hc.name == "mid-resize") {
			t.Fatalf("%s: %d shards mid-resize", hc.name, hc.h.EngineStats().Migrating)
		}
		keys, vals := handleEntries(hc.h)
		build := make(join.Relation, len(keys))
		for i, k := range keys {
			build[i] = join.Row{Key: k, Payload: vals[i]}
		}
		if len(keys) != hc.h.Len() {
			t.Fatalf("%s: Range yields %d entries, Len %d", hc.name, len(keys), hc.h.Len())
		}
		probe := probeSide(keys, hc.dangling)
		for _, pc := range projections {
			var want [][2]uint64
			matches := join.NestedLoopJoin(build, probe, func(k, b, p uint64) {
				if pc.project != nil {
					k, p = pc.project(k, b, p)
				}
				want = append(want, [2]uint64{k, p})
			})
			if matches == 0 || matches == len(probe) {
				t.Fatalf("%s: %d of %d probe rows match: the probe side was meant to repeat and to dangle", hc.name, matches, len(probe))
			}
			sortPairs(want)
			for _, workers := range []int{1, 2} {
				cfg := pipe.Config{Workers: workers, MorselSize: 512}
				jc := pipe.JoinConfig{Project: pc.project, Seed: 5}
				sides := []struct {
					name  string
					build *pipe.Stream
				}{
					{"handle probed in place", pipe.FromHandle(hc.h)},
					{"table built from its entries", pipe.FromColumns(keys, vals)},
				}
				for _, side := range sides {
					k, v, err := pipe.HashJoin(side.build, pipe.FromRelation(probe), jc).Collect(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := sortedPairs(k, v); !pairsEqual(got, want) {
						t.Fatalf("%s, %s projection, %d workers, %s: %d rows diverge from the nested-loop oracle's %d",
							hc.name, pc.name, workers, side.name, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestIndexJoinBuildsOnlyBehindAStage reads the choice off Metrics: a bare
// handle is neither scanned nor built from, a Filter or Map on it scans it
// and builds; and off the handle: no join moves its resizes. (That the
// indexed join takes no lock is TestIndexJoinUnderHeldShardLocks.)
func TestIndexJoinBuildsOnlyBehindAStage(t *testing.T) {
	h, gone := midResizeHandle(t)
	keys, _ := handleEntries(h)
	probe := probeSide(keys, gone)
	entries, rows := uint64(h.Len()), uint64(len(probe))
	all := func(_, _ uint64) bool { return true }
	same := func(k, v uint64) (uint64, uint64) { return k, v }
	sides := []struct {
		name       string
		build      *pipe.Stream
		buildsFrom uint64
	}{
		{"bare handle", pipe.FromHandle(h), 0},
		{"bare handle with a hint", pipe.FromHandle(h).Hint(10), 0},
		{"filtered handle", pipe.FromHandle(h).Filter(all), entries},
		{"mapped handle", pipe.FromHandle(h).Map(same), entries},
	}
	matches := -1
	for _, side := range sides {
		for _, workers := range []int{1, 2} {
			before := h.EngineStats()
			m := pipe.NewMetrics(workers)
			n, err := pipe.HashJoin(side.build, pipe.FromRelation(probe), pipe.JoinConfig{}).
				Count(pipe.Config{Workers: workers, MorselSize: 512, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			if matches < 0 {
				matches = n
			}
			if n != matches || n == 0 {
				t.Fatalf("%s, %d workers: %d matches, the first plan found %d", side.name, workers, n, matches)
			}
			if got := m.JoinBuild().RowsIn.Value(); got != side.buildsFrom {
				t.Errorf("%s, %d workers: %d rows built from, want %d", side.name, workers, got, side.buildsFrom)
			}
			if got := m.Scan().RowsIn.Value(); got != side.buildsFrom+rows {
				t.Errorf("%s, %d workers: %d rows scanned, want the %d probe rows and %d of the handle", side.name, workers, got, rows, side.buildsFrom)
			}
			if got := m.JoinProbe().RowsIn.Value(); got != rows {
				t.Errorf("%s, %d workers: %d rows probed, want %d", side.name, workers, got, rows)
			}
			after := h.EngineStats()
			if after.Migrating != before.Migrating || after.MigrationChunks != before.MigrationChunks || after.Len != before.Len {
				t.Fatalf("%s: the join moved the handle: %+v, then %+v", side.name, before, after)
			}
		}
	}
}

// TestIndexJoinBesideAWriter runs indexed joins while another goroutine
// updates, deletes, re-inserts and adds keys of the source handle, growing
// it through several resizes. The join holds no shard lock, so nothing can
// deadlock (the test ending is that check), and every row it emits carries
// a value its key held at some time: values are eight times their key
// (keys are below 2^60) plus a version.
func TestIndexJoinBesideAWriter(t *testing.T) {
	const initial, added = 4000, 12000
	h := table.MustOpen(table.WithPartitions(4), table.WithCapacity(1<<12))
	key := func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15>>4 | 1 }
	for i := range initial {
		if _, err := h.Put(key(i), key(i)*8); err != nil {
			t.Fatal(err)
		}
	}
	probe := make(join.Relation, 0, 2*(initial+added))
	for i := range initial + added {
		probe = append(probe, join.Row{Key: key(i)}, join.Row{Key: key(i) + 1}) // keys are odd: the second dangles
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i := round % (initial + added); {
			case i >= initial:
				_, err = h.Put(key(i), key(i)*8+uint64(round%8))
			case round%3 == 0:
				h.Delete(key(i))
			default:
				_, err = h.Put(key(i), key(i)*8+uint64(round%8))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	byBuildVal := func(k, b, _ uint64) (uint64, uint64) { return k, b }
	for run := 0; run < 6 || h.EngineStats().MigrationsDone < 4; run++ {
		if run == 500 {
			t.Error("the writer never took the handle through four resizes")
			break
		}
		err := pipe.HashJoin(pipe.FromHandle(h), pipe.FromRelation(probe), pipe.JoinConfig{Project: byBuildVal}).
			Sink(pipe.Config{Workers: 2, MorselSize: 512}, func(_ int, keys, vals []uint64) error {
				for i, k := range keys {
					if k&1 == 0 || vals[i]/8 != k {
						t.Errorf("run %d emits %#x=%#x: not a value that key ever held", run, k, vals[i])
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

package main

// join_agg and live_query — one streaming query, two build sides.
//
//	SELECT c.segment, COUNT(*), SUM(o.price) FROM orders o JOIN customers c
//	ON o.custkey = c.key WHERE o.price >= cut GROUP BY c.segment
//
// join_agg builds from an in-memory relation, so at two workers the build
// table is a pre-sized sharded handle that never resizes. live_query
// builds from a live four-shard handle frozen mid-resize, so the scan
// crosses frozen, successor and dead-overlay state on every query.

import (
	"fmt"

	"repro/agg"
	"repro/decision"
	"repro/dist"
	"repro/exec"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

const (
	segments = 1024   // distinct customer segments (the group-by's cardinality)
	maxPrice = 10_000 // order prices are uniform below this

	joinCustomers = 1_000_000
	joinOrders    = 2_000_000
	joinCut       = 5_000 // keeps half the orders

	liveInitialSlots = 1 << 16 // across the four shards
	liveGrowAt       = 0.7
	liveFillStep     = 256
	// The shards double at about 0.7 × 2^20 = 734k keys; the fill stops
	// inside that wave (see fillLive).
	liveFromKeys  = 650_000
	liveToKeys    = 800_000
	liveMigrating = 3
	liveKeySeed   = 1
	liveAttempts  = 8
	liveOrders    = 1_500_000
	liveCut       = 2_000 // keeps four fifths of the orders
)

// total is the oracle's answer for one segment.
type total struct{ count, sum uint64 }

type query struct {
	seed uint64
	// The build side: customers for join_agg, handle for live_query.
	customers join.Relation
	handle    *table.Handle
	buildRows int
	orders    join.Relation
	cut       uint64

	// The oracle's answers: the per-segment totals, how many orders
	// pass the filter, and for live_query the handle's frozen state.
	want      map[uint64]total
	filtered  int
	migrating int

	checked ops
}

func bySegment(_, segment, price uint64) (uint64, uint64) { return segment, price }

// fillOrders generates n orders over the customer keys (one in ten
// dangling) and computes the oracle's totals from a plain map.
func (q *query) fillOrders(keys, absent []uint64, n int) {
	segmentOf := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		segmentOf[k] = mix(k) % segments
	}
	q.orders = make(join.Relation, n)
	q.want = make(map[uint64]total, segments)
	picks := newRnd(q.seed, 5)
	for i := range q.orders {
		key := keys[picks.below(len(keys))]
		if picks.below(10) == 0 {
			key = absent[picks.below(len(absent))]
		}
		price := uint64(picks.below(maxPrice))
		q.orders[i] = join.Row{Key: key, Payload: price}
		if price < q.cut {
			continue
		}
		q.filtered++
		if seg, ok := segmentOf[key]; ok {
			t := q.want[seg]
			q.want[seg] = total{t.count + 1, t.sum + price}
		}
	}
}

func newJoinAgg(cfg runConfig) (*query, error) {
	n := cfg.scaled(joinCustomers)
	gen := dist.New(dist.Sparse, cfg.seed)
	keys := gen.Keys(n)
	q := &query{seed: cfg.seed, buildRows: n, cut: joinCut, customers: make(join.Relation, n)}
	for i, k := range keys {
		q.customers[i] = join.Row{Key: k, Payload: mix(k) % segments}
	}
	q.fillOrders(keys, gen.AbsentKeys(n, n), cfg.scaled(joinOrders))
	return q, nil
}

// newLiveQuery fills the live handle until liveMigrating of its four shards
// are mid-resize at once (see fillLive). The handle's keys come from
// liveKeySeed, not from the run's seed: how far each resize has got when
// the third begins moves a query's time by ±5%, so every run queries the
// same state and the seed varies the orders. About one key stream in three
// does not get there; should a change to the library's growth policy make
// liveKeySeed's one of them, the streams derived from it are tried next.
func newLiveQuery(cfg runConfig) (*query, error) {
	var tried ops
	keySeed := uint64(liveKeySeed)
	for range liveAttempts {
		q, keys, absent, err := fillLive(cfg, keySeed)
		if err != nil {
			return nil, err
		}
		q.checked.add(tried)
		if q.migrating >= liveMigrating {
			q.fillOrders(keys, absent, cfg.scaled(liveOrders))
			return q, nil
		}
		if err := settle(q.handle, absent); err != nil {
			return nil, err
		}
		tried = q.checked
		keySeed = mix(keySeed)
	}
	return nil, fmt.Errorf("never %d shards migrating between %d and %d keys in %d key streams",
		liveMigrating, liveFromKeys, liveToKeys, liveAttempts)
}

// settle finishes the resizes in flight on a handle that is about to be
// dropped, by inserting spare keys: a migration cursor keeps its frozen
// table reachable for good, and a handle has no Close.
func settle(h *table.Handle, spare []uint64) error {
	for _, k := range spare {
		if h.EngineStats().Migrating == 0 {
			break
		}
		if _, err := h.Put(k, 0); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	return nil
}

// fillLive fills a fresh handle with customer→segment from the key stream
// of keySeed: bulk steps up to liveFromKeys, then one key at a time, asking
// after each how many shards are migrating, and stops at the first key that
// makes it liveMigrating — or, with fewer, when a resize finishes or at
// liveToKeys. The shards cross their growth threshold within a few thousand
// keys of each other (sqrt(3n) apart) and a migration lasts n/256 inserted
// keys, so at this size the third usually begins before the first ends.
// Scaled down it never would (migrations shorten faster than the
// thresholds close up), so the handle keeps its size at every scale. It
// returns the inserted keys and keys never inserted.
func fillLive(cfg runConfig, keySeed uint64) (q *query, keys, absent []uint64, err error) {
	gen := dist.New(dist.Sparse, keySeed)
	keys = gen.Keys(liveToKeys)
	shards := decision.ShardsFor(2)
	h, err := table.Open(table.WithPartitions(shards), table.WithCapacity(liveInitialSlots),
		table.WithMaxLoadFactor(liveGrowAt), table.WithSeed(mix(keySeed)))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open: %w", err)
	}
	// The handle hashes with a seed of its own: a build table that hashed
	// like the handle it is filled from would be filled in slot order,
	// half again as fast as from any other source.
	q = &query{seed: cfg.seed, cut: liveCut, handle: h}
	segs := make([]uint64, liveFillStep)
	for ; q.buildRows+liveFillStep <= liveFromKeys; q.buildRows += liveFillStep {
		step := keys[q.buildRows : q.buildRows+liveFillStep]
		for i, k := range step {
			segs[i] = mix(k) % segments
		}
		inserted, err := h.PutBatch(step, segs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fill: %w", err)
		}
		q.checked.check(inserted == liveFillStep)
	}
	// The state to stop in is one state: every shard has finished the same
	// number of doublings, three are in the next and the fourth has not
	// begun. A shard that finished it early (or lags a wave behind) leaves
	// a handle of another size behind, so that ends the stream too.
	for q.migrating < liveMigrating && q.buildRows < len(keys) {
		k := keys[q.buildRows]
		inserted, err := h.Put(k, mix(k)%segments)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fill: %w", err)
		}
		q.checked.check(inserted)
		q.buildRows++
		st := h.EngineStats()
		if st.MigrationsDone%uint64(shards) != 0 {
			q.migrating = 0
			break
		}
		q.migrating = st.Migrating
	}
	return q, keys[:q.buildRows], gen.AbsentKeys(len(keys), len(keys)/2), nil
}

func setupJoinAgg(cfg runConfig) (instance, error)   { return newJoinAgg(cfg) }
func setupLiveQuery(cfg runConfig) (instance, error) { return newLiveQuery(cfg) }

// rows is what one query reads: the build side plus every order.
func (q *query) rows() int { return q.buildRows + len(q.orders) }

func (q *query) keep(_, price uint64) bool { return price >= q.cut }

func (q *query) buildStream() *pipe.Stream {
	if q.handle != nil {
		return pipe.FromHandle(q.handle)
	}
	return pipe.FromRelation(q.customers)
}

func pipeConfig(workers int) pipe.Config { return pipe.Config{Workers: workers, MorselSize: batchRows} }

func (q *query) groupConfig() pipe.GroupConfig {
	return pipe.GroupConfig{ExpectedGroups: segments, Seed: q.seed}
}

// plan runs the whole query as one pipe plan and checks its answer.
func (q *query) plan(workers int) error {
	g, err := pipe.HashJoin(q.buildStream(), pipe.FromRelation(q.orders).Filter(q.keep),
		pipe.JoinConfig{Project: bySegment, Seed: q.seed}).GroupBy(pipeConfig(workers), q.groupConfig())
	if err != nil {
		return fmt.Errorf("plan at %d workers: %w", workers, err)
	}
	q.verify(g)
	return nil
}

// verify checks a query result against the oracle, as one operation.
func (q *query) verify(g *agg.GroupBy) {
	ok := g.NumGroups() == len(q.want)
	for seg, st := range g.Groups() {
		if (total{st.Count, st.Sum}) != q.want[seg] {
			ok = false
		}
	}
	q.checked.check(ok)
}

// A round is one query, and one slice.
func (q *query) slices() int { return 1 }

func (q *query) slice(int, bool) (int, error) { return q.rows(), q.plan(2) }

// correct has nothing to do: a query's only sample is its round.
func (q *query) correct(float64) {}

func (q *query) finish() {
	if q.handle != nil {
		// Read-only queries must have left the resize where it was.
		q.checked.check(q.handle.EngineStats().Migrating == q.migrating && q.handle.Len() == q.buildRows)
	}
}

func (q *query) tally() (ops, []float64) { return q.checked, nil }

func (q *query) corrupt() {
	for seg, t := range q.want {
		q.want[seg] = total{t.count, t.sum + 1}
		return
	}
}

// scratch is one thread's column buffers for the hand-written rungs.
type scratch struct {
	keys, vals, out []uint64
	ok              []bool
}

func newScratch() *scratch {
	return &scratch{
		keys: make([]uint64, batchRows), vals: make([]uint64, batchRows),
		out: make([]uint64, batchRows), ok: make([]bool, batchRows),
	}
}

// insert puts the first n rows of the scratch columns into the build table.
func (sc *scratch) insert(h *table.Handle, n int, m *meter) error {
	t0 := now()
	_, err := h.GetOrPutBatch(sc.keys[:n], sc.vals[:n], sc.out[:n], sc.ok[:n])
	m.record(kGetOrPut, n, t0, now())
	if err != nil {
		return fmt.Errorf("GetOrPutBatch: %w", err)
	}
	return nil
}

// buildMorsel inserts customers[lo:hi] (at most batchRows rows).
func (q *query) buildMorsel(h *table.Handle, sc *scratch, lo, hi int, m *meter) error {
	for i, r := range q.customers[lo:hi] {
		sc.keys[i], sc.vals[i] = r.Key, r.Payload
	}
	return sc.insert(h, hi-lo, m)
}

// buildFromHandle inserts everything a Range over the live handle yields,
// one batch at a time.
func (q *query) buildFromHandle(h *table.Handle, sc *scratch, m *meter) error {
	var err error
	n := 0
	q.handle.Range(func(k, v uint64) bool {
		sc.keys[n], sc.vals[n] = k, v
		if n++; n == batchRows {
			err = sc.insert(h, n, m)
			n = 0
		}
		return err == nil
	})
	if err == nil && n > 0 {
		err = sc.insert(h, n, m)
	}
	return err
}

// probeMorsel filters orders[lo:hi], probes the survivors with one
// GetBatch and folds the matches into g as (segment, price).
func (q *query) probeMorsel(h *table.Handle, g *agg.GroupBy, sc *scratch, lo, hi int, m *meter) error {
	n := 0
	for _, r := range q.orders[lo:hi] {
		if r.Payload >= q.cut {
			sc.keys[n], sc.vals[n] = r.Key, r.Payload
			n++
		}
	}
	t0 := now()
	h.GetBatch(sc.keys[:n], sc.out[:n], sc.ok[:n])
	m.record(kGet, n, t0, now())
	matched := 0
	for i := range n {
		if sc.ok[i] {
			sc.keys[matched], sc.vals[matched] = sc.out[i], sc.vals[i]
			matched++
		}
	}
	t0 = now()
	err := g.AddBatch(sc.keys[:matched], sc.vals[:matched])
	m.record(kAdd, matched, t0, now())
	if err != nil {
		return fmt.Errorf("AddBatch: %w", err)
	}
	return nil
}

// openBuild opens the build table the way pipe.HashJoin does: pre-sized
// for load factor 0.5, a single fixed table for one worker, a sharded
// growing handle for more.
func (q *query) openBuild(workers int) (*table.Handle, error) {
	opts := []table.Option{table.WithCapacity(join.CapacityFor(q.buildRows, 0.5)), table.WithSeed(q.seed)}
	if workers > 1 {
		opts = append(opts, table.WithPartitions(decision.ShardsFor(workers)), table.WithMaxLoadFactor(table.DefaultMaxLoadFactor))
	} else {
		opts = append(opts, table.WithMaxLoadFactor(0))
	}
	return table.Open(opts...)
}

func (q *query) aggConfig(worker int) agg.Config {
	return agg.Config{ExpectedGroups: segments, Seed: q.seed + uint64(worker)}
}

// floor is the query written by hand against table and agg on one thread:
// no pool, no pipeline.
func (q *query) floor(m *meter) error {
	h, err := q.openBuild(1)
	if err != nil {
		return fmt.Errorf("open build table: %w", err)
	}
	sc := newScratch()
	if q.handle != nil {
		err = q.buildFromHandle(h, sc, m)
	}
	for lo := 0; lo < len(q.customers) && err == nil; lo += batchRows {
		err = q.buildMorsel(h, sc, lo, min(lo+batchRows, len(q.customers)), m)
	}
	if err != nil {
		return err
	}
	g, err := agg.NewGroupBy(q.aggConfig(0))
	if err != nil {
		return fmt.Errorf("open group-by: %w", err)
	}
	for lo := 0; lo < len(q.orders); lo += batchRows {
		if err := q.probeMorsel(h, g, sc, lo, min(lo+batchRows, len(q.orders)), m); err != nil {
			return err
		}
	}
	q.verify(g)
	return nil
}

// morsels is the floor carved into morsels on an exec.Pool: per-worker
// scratch and group-by (exec.Locals), merged at the end. meters[w]
// accounts pool worker w; every callback is also one kMorsel call.
func (q *query) morsels(workers int, meters []*meter) error {
	pool := exec.NewPool(exec.Config{Workers: workers, MorselSize: batchRows})
	defer pool.Close()
	h, err := q.openBuild(workers)
	if err != nil {
		return fmt.Errorf("open build table: %w", err)
	}
	scs := make([]*scratch, workers)
	for w := range scs {
		scs[w] = newScratch()
	}
	if q.handle != nil {
		// A live handle has no index range to carve: one task scans it.
		err = pool.ForMorsels(1, func(w, _, _ int) error {
			t0 := now()
			err := q.buildFromHandle(h, scs[w], meters[w])
			meters[w].record(kMorsel, q.buildRows, t0, now())
			return err
		})
	} else {
		err = pool.ForMorsels(len(q.customers), func(w, lo, hi int) error {
			t0 := now()
			err := q.buildMorsel(h, scs[w], lo, hi, meters[w])
			meters[w].record(kMorsel, hi-lo, t0, now())
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	locals, err := exec.Locals(pool, len(q.orders),
		func(w int) (*agg.GroupBy, error) { return agg.NewGroupBy(q.aggConfig(w + 1)) },
		func(g *agg.GroupBy, w, lo, hi int) error {
			t0 := now()
			err := q.probeMorsel(h, g, scs[w], lo, hi, meters[w])
			meters[w].record(kMorsel, hi-lo, t0, now())
			return err
		})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	merged, err := agg.NewGroupBy(q.aggConfig(0))
	if err != nil {
		return fmt.Errorf("open group-by: %w", err)
	}
	for _, local := range locals {
		if err := merged.Merge(local); err != nil {
			return fmt.Errorf("merge: %w", err)
		}
	}
	q.verify(merged)
	return nil
}

// queryLadder climbs table+agg (the floor) → exec (the floor in morsels,
// one and two workers) → pipe (the plan, one and two workers), then times
// the partial plans that locate a change in the pipe tax.
func queryLadder(name string, q *query, tr *tracer, rounds int, res *result) error {
	floorM := tr.meter("floor", 0)
	exec1M := []*meter{tr.meter("exec", 0)}
	exec2M := []*meter{tr.meter("exec", 1), tr.meter("exec", 2)}

	// metered is a pass whose calls hang off the pass's span.
	metered := func(ms []*meter, fn func() error) func(id, round int32) error {
		return func(id, round int32) error {
			for _, m := range ms {
				m.enter(id, round)
			}
			return fn()
		}
	}
	// whole is a pass that is one call from outside — a pipe plan — whose
	// span is the pass's own.
	whole := func(fn func() error) func(_, _ int32) error {
		return func(_, _ int32) error { return fn() }
	}
	rows := q.rows()
	floor := &rung{name: name + "/floor", rows: rows, run: metered([]*meter{floorM}, func() error { return q.floor(floorM) })}
	exec1 := &rung{name: name + "/exec w1", rows: rows, run: metered(exec1M, func() error { return q.morsels(1, exec1M) })}
	exec2 := &rung{name: name + "/exec w2", rows: rows, run: metered(exec2M, func() error { return q.morsels(2, exec2M) })}
	pipe1 := &rung{name: name + "/pipe w1", rows: rows, run: whole(func() error { return q.plan(1) })}
	pipe2 := &rung{name: name + "/pipe w2", rows: rows, run: whole(func() error { return q.plan(2) })}
	// From outside a plan is one call, so its traced and untraced passes
	// are the same code and the ratio shows the run's noise floor.
	untraced := &rung{name: name + "/pipe w2 untraced", rows: rows, run: whole(func() error { return q.plan(2) })}
	rungs := []*rung{floor, exec1, exec2, pipe1, pipe2, untraced}

	// The partial plans, all at one worker like the tax they explain;
	// each is named after the metric it yields.
	one := pipeConfig(1)
	var partials []*rung
	addPartial := func(metric string, rows int, fn func() error) {
		partials = append(partials, &rung{name: metric, rows: rows, run: whole(fn)})
	}
	if q.handle != nil {
		addPartial("pipe.scan_handle_ns_per_row", q.buildRows, func() error { return pipe.FromHandle(q.handle).Drain(one) })
		addPartial("shard.scan_ns_per_row", q.buildRows, func() error {
			n := 0
			q.handle.Range(func(_, _ uint64) bool { n++; return true })
			q.checked.check(n == q.buildRows)
			return nil
		})
	} else {
		var segs, prices []uint64
		segmentOf := make(map[uint64]uint64, len(q.customers))
		for _, c := range q.customers {
			segmentOf[c.Key] = c.Payload
		}
		for _, o := range q.orders {
			if seg, ok := segmentOf[o.Key]; ok && o.Payload >= q.cut {
				segs, prices = append(segs, seg), append(prices, o.Payload)
			}
		}
		addPartial("pipe.scan_ns_per_row", len(q.orders), func() error { return pipe.FromRelation(q.orders).Drain(one) })
		addPartial("pipe.filter_ns_per_row", len(q.orders), func() error {
			n, err := pipe.FromRelation(q.orders).Filter(q.keep).Count(one)
			q.checked.check(n == q.filtered)
			return err
		})
		addPartial("pipe.build_ns_per_row", q.buildRows, func() error {
			return pipe.HashJoin(q.buildStream(), pipe.FromRelation(nil), pipe.JoinConfig{Seed: q.seed}).Drain(one)
		})
		addPartial("pipe.groupby_ns_per_row", len(segs), func() error {
			g, err := pipe.FromColumns(segs, prices).GroupBy(one, q.groupConfig())
			if err == nil {
				q.verify(g)
			}
			return err
		})
	}

	meters := append([]*meter{floorM}, append(exec1M, exec2M...)...)
	if err := climb(tr, name, rounds, append(rungs, partials...), meters); err != nil {
		return err
	}

	emit := func(metric, unit string, v float64) { res.emit(metric+"."+name, unit, v) }
	emit("table.getorput_ns_per_row", "ns/row", floorM.nsPerRow(kGetOrPut))
	emit("table.probe_ns_per_row", "ns/row", floorM.nsPerRow(kGet))
	emit("agg.add_ns_per_row", "ns/row", floorM.nsPerRow(kAdd))
	emit("agg.groups", "count", float64(len(q.want)))
	emit("floor.ns_per_row", "ns/row", floor.nsPerRow())
	emit("exec.tax_ns_per_row", "ns/row", exec1.nsPerRow()-floor.nsPerRow())
	emit("exec.scale_w2", "ratio", median(exec1.wall)/median(exec2.wall))
	var busy, wall float64
	for _, m := range exec2M {
		busy += float64(m.ns[kMorsel])
	}
	for _, ns := range exec2.wall {
		wall += ns
	}
	emit("exec.idle_share", "ratio", 1-busy/(wall*float64(len(exec2M))))
	emit("exec.morsels", "count", float64(exec2M[0].calls[kMorsel]+exec2M[1].calls[kMorsel])/float64(rounds))
	emit("pipe.plan_ns_per_row_w1", "ns/row", pipe1.nsPerRow())
	emit("pipe.tax_ns_per_row", "ns/row", pipe1.nsPerRow()-exec1.nsPerRow())
	emit("pipe.scale_w2", "ratio", median(pipe1.wall)/median(pipe2.wall))
	for _, g := range partials {
		res.emit(g.name, "ns/row", g.nsPerRow())
	}
	if q.handle != nil {
		res.emit("shard.migrating", "count", float64(q.handle.EngineStats().Migrating))
	}
	emitOverhead(res, name, pipe2, untraced)
	q.finish()
	res.count(q.checked)
	return nil
}

func joinAggLadder(cfg runConfig, tr *tracer, rounds int, res *result) error {
	q, err := newJoinAgg(cfg)
	if err != nil {
		return fmt.Errorf("join_agg ladder set-up: %w", err)
	}
	return queryLadder("join_agg", q, tr, rounds, res)
}

func liveQueryLadder(cfg runConfig, tr *tracer, rounds int, res *result) error {
	q, err := newLiveQuery(cfg)
	if err != nil {
		return fmt.Errorf("live_query ladder set-up: %w", err)
	}
	return queryLadder("live_query", q, tr, rounds, res)
}

package pipe_test

// The fused stages run as column kernels: a source fills its batch, then
// each stage compacts the batch in place. These tests pin that to the
// row-at-a-time semantics — a row flows through the chain until a
// predicate drops it — written out as a plain loop (oracle), for every
// source, at the batch-boundary input sizes, serial and parallel: same
// surviving rows (same order when serial), the same number of pred/fn
// calls per stage, the same Metrics rows in/out.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/agg"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

const stageMorsel = 64

var stageSizes = []int{0, 1, stageMorsel - 1, stageMorsel, stageMorsel + 1, 3*stageMorsel + 7}

// stageOp is one stage of a chain: a predicate or a transform.
type stageOp struct {
	pred func(k, v uint64) bool
	fn   func(k, v uint64) (uint64, uint64)
}

func filterOp(pred func(k, v uint64) bool) stageOp        { return stageOp{pred: pred} }
func mapOp(fn func(k, v uint64) (uint64, uint64)) stageOp { return stageOp{fn: fn} }
func swapKV(k, v uint64) (uint64, uint64)                 { return v, k }
func mixKV(k, v uint64) (uint64, uint64)                  { return k ^ v<<1, v + k%7 }
func constPred(keep bool) func(k, v uint64) bool          { return func(_, _ uint64) bool { return keep } }
func keyMod(m, r uint64) func(k, v uint64) bool           { return func(k, _ uint64) bool { return k%m == r } }
func valMod(m, r uint64) func(k, v uint64) bool           { return func(_, v uint64) bool { return v%m == r } }
func notKeyMod(m, r uint64) func(k, v uint64) bool        { return func(k, _ uint64) bool { return k%m != r } }

var stageChains = []struct {
	name string
	ops  []stageOp
}{
	{"none", nil},
	{"filter-map-filter", []stageOp{filterOp(notKeyMod(3, 0)), mapOp(mixKV), filterOp(valMod(2, 0))}},
	// The second filter reads a key the map wrote: the old value.
	{"map-rewrites-key", []stageOp{mapOp(swapKV), filterOp(keyMod(5, 0)), mapOp(swapKV)}},
	{"all-dropped", []stageOp{filterOp(constPred(false)), mapOp(mixKV), filterOp(constPred(true))}},
	{"none-dropped", []stageOp{filterOp(constPred(true)), mapOp(mixKV), filterOp(constPred(true))}},
}

// oracle is the row-at-a-time semantics: each row runs down the chain
// until a predicate drops it. reached[i] counts the rows stage i saw.
func oracle(ops []stageOp, rows [][2]uint64) (out [][2]uint64, reached []int) {
	reached = make([]int, len(ops))
rows:
	for _, r := range rows {
		k, v := r[0], r[1]
		for i, op := range ops {
			reached[i]++
			if op.pred != nil {
				if !op.pred(k, v) {
					continue rows
				}
			} else {
				k, v = op.fn(k, v)
			}
		}
		out = append(out, [2]uint64{k, v})
	}
	return out, reached
}

// withStages appends ops to s, each wrapped in a call counter.
func withStages(s *pipe.Stream, ops []stageOp) (*pipe.Stream, []atomic.Int64) {
	calls := make([]atomic.Int64, len(ops))
	for i, op := range ops {
		c := &calls[i]
		if op.pred != nil {
			s = s.Filter(func(k, v uint64) bool { c.Add(1); return op.pred(k, v) })
		} else {
			s = s.Map(func(k, v uint64) (uint64, uint64) { c.Add(1); return op.fn(k, v) })
		}
	}
	return s, calls
}

// stageSource is one way of feeding rows to a stage chain: open builds it
// over n input rows.
type stageSource struct {
	name string
	open func(t *testing.T, n int) stageInput
}

// stageInput is an opened source: the stream, the rows the chain will see
// (in serial emission order when ordered), the operator whose Metrics rows
// in/out bracket the chain, and the rows that operator takes in.
type stageInput struct {
	s       *pipe.Stream
	rows    [][2]uint64
	ordered bool
	op      func(*pipe.Metrics) *pipe.OpMetrics
	in      int
}

func stageRow(i int) (k, v uint64) { return uint64(i+1) * 0x9e3779b97f4a7c15, uint64(i) }

func stageColumns(n int) (keys, vals []uint64, rows [][2]uint64) {
	keys, vals = make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = stageRow(i)
		rows = append(rows, [2]uint64{keys[i], vals[i]})
	}
	return keys, vals, rows
}

func stageHandle(t *testing.T, n int, opts ...table.Option) (*table.Handle, [][2]uint64) {
	h := table.MustOpen(append(opts, table.WithSeed(9))...)
	for i := 0; i < n; i++ {
		k, v := stageRow(i)
		if _, err := h.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	var rows [][2]uint64
	h.Range(func(k, v uint64) bool { rows = append(rows, [2]uint64{k, v}); return true })
	return h, rows
}

func scanOp(m *pipe.Metrics) *pipe.OpMetrics  { return m.Scan() }
func probeOp(m *pipe.Metrics) *pipe.OpMetrics { return m.JoinProbe() }

// joinSource joins the even rows (build) to all rows (probe): the chain
// sees every other probe row, projected.
func joinSource(project func(k, b, p uint64) (uint64, uint64)) func(*testing.T, int) stageInput {
	return func(t *testing.T, n int) stageInput {
		keys, vals, _ := stageColumns(n)
		var build join.Relation
		var rows [][2]uint64
		for i := range keys {
			if i%2 == 0 {
				build = append(build, join.Row{Key: keys[i], Payload: vals[i] + 100})
				if project == nil {
					rows = append(rows, [2]uint64{keys[i], vals[i]})
				} else {
					k, v := project(keys[i], vals[i]+100, vals[i])
					rows = append(rows, [2]uint64{k, v})
				}
			}
		}
		s := pipe.HashJoin(pipe.FromRelation(build), pipe.FromColumns(keys, vals), pipe.JoinConfig{Project: project})
		return stageInput{s, rows, true, probeOp, n}
	}
}

var stageSources = []stageSource{
	{"columns", func(t *testing.T, n int) stageInput {
		keys, vals, rows := stageColumns(n)
		return stageInput{pipe.FromColumns(keys, vals), rows, true, scanOp, n}
	}},
	{"key-only-columns", func(t *testing.T, n int) stageInput {
		keys, _, rows := stageColumns(n)
		for i := range rows {
			rows[i][1] = 0
		}
		return stageInput{pipe.FromColumns(keys, nil), rows, true, scanOp, n}
	}},
	{"relation", func(t *testing.T, n int) stageInput {
		_, _, rows := stageColumns(n)
		rel := make(join.Relation, n)
		for i, r := range rows {
			rel[i] = join.Row{Key: r[0], Payload: r[1]}
		}
		return stageInput{pipe.FromRelation(rel), rows, true, scanOp, n}
	}},
	{"handle", func(t *testing.T, n int) stageInput {
		h, rows := stageHandle(t, n)
		return stageInput{pipe.FromHandle(h), rows, true, scanOp, n}
	}},
	{"sharded-handle", func(t *testing.T, n int) stageInput {
		h, rows := stageHandle(t, n, table.WithPartitions(4))
		return stageInput{pipe.FromHandle(h), rows, false, scanOp, n}
	}},
	{"groups", func(t *testing.T, n int) stageInput {
		keys, vals, rows := stageColumns(n)
		g, err := pipe.FromColumns(keys, vals).GroupBy(pipe.Config{Workers: 1}, pipe.GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return stageInput{pipe.FromGroups(g, agg.Sum), rows, true, scanOp, n} // unique keys: SUM is the value
	}},
	{"join", joinSource(nil)},
	{"join-projected", joinSource(func(k, b, p uint64) (uint64, uint64) { return b, k + p })},
}

// checkChain runs s through ops with Collect and compares rows, call
// counts and metrics against the oracle over rows.
func checkChain(t *testing.T, src stageInput, ops []stageOp, workers int) {
	t.Helper()
	want, reached := oracle(ops, src.rows)
	s, calls := withStages(src.s, ops)
	m := pipe.NewMetrics(workers)
	keys, vals, err := s.Collect(pipe.Config{Workers: workers, MorselSize: stageMorsel, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][2]uint64, len(keys))
	for i := range keys {
		got[i] = [2]uint64{keys[i], vals[i]}
	}
	if !(src.ordered && workers == 1) {
		got, want = sortedPairs(keys, vals), sortedRows(want)
	}
	if !pairsEqual(got, want) {
		t.Fatalf("collected %d rows, oracle %d; first rows %v vs %v", len(got), len(want), head(got), head(want))
	}
	for i := range calls {
		if n := int(calls[i].Load()); n != reached[i] {
			t.Fatalf("stage %d was called for %d rows, the oracle's chain reaches it with %d", i, n, reached[i])
		}
	}
	if gotIn := src.op(m).RowsIn.Value(); gotIn != uint64(src.in) {
		t.Fatalf("metrics rows in = %d, want %d", gotIn, src.in)
	}
	if gotOut := src.op(m).RowsOut.Value(); gotOut != uint64(len(want)) {
		t.Fatalf("metrics rows out = %d, want the oracle's %d", gotOut, len(want))
	}
}

func sortedRows(rows [][2]uint64) [][2]uint64 {
	keys, vals := make([]uint64, len(rows)), make([]uint64, len(rows))
	for i, r := range rows {
		keys[i], vals[i] = r[0], r[1]
	}
	return sortedPairs(keys, vals)
}

func head(rows [][2]uint64) [][2]uint64 { return rows[:min(len(rows), 4)] }

func TestStageKernelsMatchRowOracle(t *testing.T) {
	for _, src := range stageSources {
		for _, chain := range stageChains {
			for _, n := range stageSizes {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/n=%d/w=%d", src.name, chain.name, n, workers), func(t *testing.T) {
						checkChain(t, src.open(t, n), chain.ops, workers)
					})
				}
			}
		}
	}
}

// TestStageKernelsMidResizeScan: the migration-aware walk of a handle
// caught mid-resize feeds the stage kernels each key exactly once.
func TestStageKernelsMidResizeScan(t *testing.T) {
	h := table.MustOpen(table.WithPartitions(4), table.WithCapacity(256), table.WithSeed(9))
	n := 0
	for ; h.EngineStats().Migrating == 0; n++ {
		k, v := stageRow(n)
		if _, err := h.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	_, _, rows := stageColumns(n)
	for _, chain := range stageChains {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w=%d", chain.name, workers), func(t *testing.T) {
				if h.EngineStats().Migrating == 0 {
					t.Fatal("the resize finished under a read-only scan")
				}
				checkChain(t, stageInput{pipe.FromHandle(h), rows, false, scanOp, n}, chain.ops, workers)
			})
		}
	}
}

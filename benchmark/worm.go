package main

// worm_probe — the paper's write-once-read-many read phase on the table
// layer alone: three single-partition handles, one per structurally
// distinct core, built once and probed with a 75%-hit tape. hashfn and
// table do all the work; shard, exec, pipe and agg do none.

import (
	"fmt"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

const (
	wormSlots  = 1 << 22   // per table, filled to 70%
	wormProbes = 2_000_000 // per table and round
)

// wormCores are the three table implementations that share no probe code:
// the policy kernel (RH is Open's default), chained, and cuckoo.
var wormCores = []struct {
	name   string
	scheme table.Scheme
}{
	{"rh", table.SchemeRH},
	{"chained24", table.SchemeChained24},
	{"cuckoo4", table.SchemeCuckooH4},
}

type worm struct {
	handles []*table.Handle
	keys    int // per table
	tape    []uint64
	// wantHits and wantSums are the oracle's answer per tape batch.
	wantHits []int
	wantSums []uint64
	out      []uint64
	ok       []bool

	gets    meter    // the end-to-end run's probe calls
	builds  []*meter // per core: the build's PutBatch calls
	checked ops
}

// newWorm generates the inputs, builds the oracle and the three tables.
// With a tracer the build's PutBatch calls become spans.
func newWorm(cfg runConfig, tr *tracer) (*worm, error) {
	slots := cfg.scaled(wormSlots)
	n := slots * 7 / 10
	probes := cfg.scaled(wormProbes)

	gen := dist.New(dist.Sparse, cfg.seed)
	keys := gen.Keys(n)
	absent := gen.AbsentKeys(n, probes/4)
	vals := make([]uint64, n)
	oracle := make(map[uint64]uint64, n)
	for i, k := range keys {
		vals[i] = valueOf(k)
		oracle[k] = vals[i]
	}

	w := &worm{keys: n, out: make([]uint64, batchRows), ok: make([]bool, batchRows)}
	for _, core := range wormCores {
		h, err := table.Open(table.WithScheme(core.scheme), table.WithCapacity(slots),
			table.WithMaxLoadFactor(0), table.WithSeed(cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", core.name, err)
		}
		m := tr.meter("table."+core.name, 0)
		if err := putAll(h, keys, vals, m, &w.checked); err != nil {
			return nil, fmt.Errorf("build %s: %w", core.name, err)
		}
		w.handles = append(w.handles, h)
		w.builds = append(w.builds, m)
	}

	// The probe tape: 75% present keys picked at random, 25% absent,
	// shuffled together.
	picks := newRnd(cfg.seed, 1)
	tape := make([]uint64, 0, probes)
	tape = append(tape, absent...)
	for len(tape) < probes {
		tape = append(tape, keys[picks.below(n)])
	}
	w.tape = dist.Shuffled(tape, cfg.seed)
	for lo := 0; lo < probes; lo += batchRows {
		hits, sum := 0, uint64(0)
		for _, k := range w.tape[lo:min(lo+batchRows, probes)] {
			if v, ok := oracle[k]; ok {
				hits++
				sum += v
			}
		}
		w.wantHits = append(w.wantHits, hits)
		w.wantSums = append(w.wantSums, sum)
	}
	return w, nil
}

func setupWorm(cfg runConfig) (instance, error) {
	w, err := newWorm(cfg, nil)
	if err != nil {
		return nil, err
	}
	w.gets.samples = make([]float64, 0, cfg.rounds*len(w.handles)*len(w.wantHits))
	return w, nil
}

// probe runs the whole tape against one handle, one GetBatch per batch.
func (w *worm) probe(h *table.Handle, m *meter) {
	for b, lo := 0, 0; lo < len(w.tape); b, lo = b+1, lo+batchRows {
		keys := w.tape[lo:min(lo+batchRows, len(w.tape))]
		out, ok := w.out[:len(keys)], w.ok[:len(keys)]
		t0 := now()
		hits := h.GetBatch(keys, out, ok)
		m.record(kGet, len(keys), t0, now())
		w.checked.check(hits == w.wantHits[b] && sumHits(out, ok) == w.wantSums[b])
	}
}

// A slice is the whole tape against one core.
func (w *worm) slices() int { return len(w.handles) }

func (w *worm) slice(s int, sampled bool) (int, error) {
	w.gets.sampled = sampled
	w.probe(w.handles[s], &w.gets)
	return len(w.tape), nil
}

func (w *worm) correct(speed float64) { w.gets.correct(speed) }

func (w *worm) finish() {
	for _, h := range w.handles {
		w.checked.check(h.Len() == w.keys)
	}
}

func (w *worm) tally() (ops, []float64) { return w.checked, w.gets.samples }

func (w *worm) corrupt() { w.wantHits[0]++ }

// wormLadder climbs hashfn → table on the probe tape and reports the
// build's cost and the tables' shape.
func wormLadder(cfg runConfig, tr *tracer, rounds int, res *result) error {
	w, err := newWorm(cfg, tr)
	if err != nil {
		return fmt.Errorf("worm_probe ladder set-up: %w", err)
	}
	for c, core := range wormCores {
		st := w.handles[c].Stats()
		res.emit("table.put_ns_per_row."+core.name, "ns/row", w.builds[c].nsPerRow(kPut))
		res.emit("table.mean_probe."+core.name, "probes", st.MeanProbe)
		res.emit("table.max_probe."+core.name, "probes", float64(st.MaxProbe))
		res.emit("table.bytes_per_entry."+core.name, "B", float64(st.MemoryBytes)/float64(st.Len))
	}

	// The hash rung's oracle: the scalar Hash of every key, folded per batch.
	fn := hashfn.MultFamily{}.New(cfg.seed)
	var wantHash []uint64
	for lo := 0; lo < len(w.tape); lo += batchRows {
		var x uint64
		for _, k := range w.tape[lo:min(lo+batchRows, len(w.tape))] {
			x ^= fn.Hash(k)
		}
		wantHash = append(wantHash, x)
	}

	hashM := tr.meter("hashfn", 0)
	getM := make([]*meter, len(wormCores))
	for c, core := range wormCores {
		getM[c] = tr.meter("table."+core.name, 0)
	}
	plain := &meter{}
	hash := &rung{name: "worm_probe/hashfn", run: func(id, round int32) error {
		hashM.enter(id, round)
		for b, lo := 0, 0; lo < len(w.tape); b, lo = b+1, lo+batchRows {
			keys := w.tape[lo:min(lo+batchRows, len(w.tape))]
			t0 := now()
			hashfn.HashBatch(fn, keys, w.out)
			hashM.record(kHash, len(keys), t0, now())
			var x uint64
			for _, h := range w.out[:len(keys)] {
				x ^= h
			}
			w.checked.check(x == wantHash[b])
		}
		return nil
	}}
	probe := &rung{name: "worm_probe/table", run: func(id, round int32) error {
		for c, h := range w.handles {
			getM[c].enter(id, round)
			w.probe(h, getM[c])
		}
		return nil
	}}
	untraced := &rung{name: "worm_probe/table untraced", run: func(_, _ int32) error {
		for _, h := range w.handles {
			w.probe(h, plain)
		}
		return nil
	}}
	if err := climb(tr, "worm_probe", rounds, []*rung{hash, probe, untraced}, append(getM, hashM, plain)); err != nil {
		return err
	}
	res.emit("hashfn.hash_ns_per_row", "ns/row", hashM.nsPerRow(kHash))
	for c, core := range wormCores {
		res.emit("table.get_ns_per_row."+core.name, "ns/row", getM[c].nsPerRow(kGet))
	}
	emitOverhead(res, "worm_probe", probe, untraced)
	res.count(w.checked)
	return nil
}

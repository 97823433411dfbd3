package main

// rw_resize — writes beside reads on the shard layer: every round a fresh
// four-shard handle grows from a few thousand slots to a million keys
// through incremental doublings while two clients insert, look up (present
// and absent keys) and delete. pipe and agg do none of the work.

import (
	"fmt"
	"sort"

	"repro/decision"
	"repro/dist"
	"repro/exec"
	"repro/join"
	"repro/table"
)

const (
	rwClients       = 2
	rwKeysPerClient = 1 << 19
	rwStep          = 1024    // keys per PutBatch/GetBatch
	rwVictims       = 256     // of each step's keys, deleted one step later (the paper's 4:1 insert:delete)
	rwInitialSlots  = 1 << 14 // across the four shards
	rwGrowAt        = 0.7
	// rwSlices cuts a round into slices of as many steps each: the
	// clients meet at the end of a slice and start the next together.
	rwSlices = 8
)

// rwClient is one client's tape and its oracle answers. Clients own
// disjoint keys, so the oracle can replay them one after the other.
type rwClient struct {
	keys, vals []uint64 // fresh keys in insertion order
	reads      []uint64 // two batches per step: keys inserted earlier and never deleted
	absent     []uint64 // one batch per step: keys never inserted
	wantSums   []uint64 // per read batch, the oracle's sum of values
	out        []uint64
	ok         []bool

	checked ops
}

type rw struct {
	seed    uint64
	slots   int
	clients []*rwClient
	wantLen int
	// meters account the clients in the end-to-end run, one each.
	meters []*meter
	// last is the final round's handle, kept for the live-heap reading.
	last    *table.Handle
	checked ops
}

func newRW(cfg runConfig) (*rw, error) {
	per := cfg.scaled(rwKeysPerClient)
	steps := per / rwStep
	if steps < rwSlices {
		return nil, fmt.Errorf("scale %d leaves %d keys per client, fewer than a step per slice", cfg.scale, per)
	}
	gen := dist.New(dist.Sparse, cfg.seed)
	total := rwClients * per
	keys := gen.Keys(total)
	absent := gen.AbsentKeys(total, total)

	r := &rw{seed: cfg.seed, slots: cfg.scaled(rwInitialSlots)}
	oracle := make(map[uint64]uint64, total)
	for c := range rwClients {
		cl := &rwClient{
			keys:   keys[c*per : (c+1)*per],
			vals:   make([]uint64, per),
			reads:  make([]uint64, 0, 2*per),
			absent: absent[c*per : (c+1)*per],
			out:    make([]uint64, rwStep),
			ok:     make([]bool, rwStep),
		}
		picks := newRnd(cfg.seed, uint64(2+c))
		for s := range steps {
			lo := s * rwStep
			for i := lo; i < lo+rwStep; i++ {
				cl.vals[i] = valueOf(cl.keys[i])
				oracle[cl.keys[i]] = cl.vals[i]
			}
			for range 2 {
				var sum uint64
				for range rwStep {
					// A survivor (not one of the first rwVictims) of a step up to s.
					k := cl.keys[picks.below(s+1)*rwStep+rwVictims+picks.below(rwStep-rwVictims)]
					v, ok := oracle[k]
					if !ok {
						return nil, fmt.Errorf("read tape targets a key the oracle does not hold")
					}
					cl.reads = append(cl.reads, k)
					sum += v
				}
				cl.wantSums = append(cl.wantSums, sum)
			}
			for _, k := range cl.absent[lo : lo+rwStep] {
				if _, ok := oracle[k]; ok {
					return nil, fmt.Errorf("absent tape holds an inserted key")
				}
			}
			if s > 0 {
				for _, k := range cl.keys[lo-rwStep:][:rwVictims] {
					delete(oracle, k)
				}
			}
		}
		r.clients = append(r.clients, cl)
	}
	r.wantLen = len(oracle)
	return r, nil
}

func setupRW(cfg runConfig) (instance, error) {
	r, err := newRW(cfg)
	if err != nil {
		return nil, err
	}
	for _, cl := range r.clients {
		r.meters = append(r.meters, &meter{samples: make([]float64, 0, cfg.rounds*5*len(cl.keys)/rwStep)})
	}
	return r, nil
}

// replay steps through steps [from, to) of the client's tape against h:
// per step one PutBatch of fresh keys, two GetBatch of present keys, one
// GetBatch of absent keys, and the scalar deletes of the previous step's
// victims.
func (c *rwClient) replay(h *table.Handle, m *meter, from, to int) error {
	for s := from; s < to; s++ {
		lo := s * rwStep
		t0 := now()
		inserted, err := h.PutBatch(c.keys[lo:lo+rwStep], c.vals[lo:lo+rwStep])
		m.record(kPut, rwStep, t0, now())
		if err != nil {
			return fmt.Errorf("PutBatch at step %d: %w", s, err)
		}
		c.checked.check(inserted == rwStep)

		for b := 2 * s; b < 2*s+2; b++ {
			t0 = now()
			hits := h.GetBatch(c.reads[b*rwStep:][:rwStep], c.out, c.ok)
			m.record(kGet, rwStep, t0, now())
			c.checked.check(hits == rwStep && sumHits(c.out, c.ok) == c.wantSums[b])
		}
		t0 = now()
		hits := h.GetBatch(c.absent[lo:lo+rwStep], c.out, c.ok)
		m.record(kGet, rwStep, t0, now())
		c.checked.check(hits == 0)

		if s > 0 {
			deleted := 0
			t0 = now()
			for _, k := range c.keys[lo-rwStep:][:rwVictims] {
				if h.Delete(k) {
					deleted++
				}
			}
			m.record(kDelete, rwVictims, t0, now())
			c.checked.check(deleted == rwVictims)
		}
	}
	return nil
}

// steps is the length of every client's tape.
func (r *rw) steps() int { return len(r.clients[0].keys) / rwStep }

// rows is the number of keys steps [from, to) of every client's tape touch.
func (r *rw) rows(from, to int) int {
	deletes := to - max(from, 1) // step 0 has no earlier step's victims
	return len(r.clients) * ((to-from)*4*rwStep + deletes*rwVictims)
}

// openGrowing opens the workload's handle: four shards for two clients,
// starting tiny, so the replay crosses about seven doublings per shard.
func (r *rw) openGrowing() (*table.Handle, error) {
	return table.Open(table.WithPartitions(decision.ShardsFor(rwClients)), table.WithCapacity(r.slots),
		table.WithMaxLoadFactor(rwGrowAt), table.WithSeed(r.seed))
}

// concurrent replays steps [from, to) of every client's tape at once, one
// pool task each; meters[c] accounts client c. The handle's Len is checked
// when the tapes end.
func (r *rw) concurrent(h *table.Handle, meters []*meter, from, to int) error {
	err := exec.RunTasks(exec.Config{Workers: rwClients}, len(r.clients), func(_, c int) error {
		return r.clients[c].replay(h, meters[c], from, to)
	})
	if to == r.steps() {
		r.checked.check(h.Len() == r.wantLen)
	}
	return err
}

func (r *rw) slices() int { return rwSlices }

// slice replays the s-th eighth of the tapes; the first opens the round's
// fresh handle.
func (r *rw) slice(s int, sampled bool) (int, error) {
	if s == 0 {
		h, err := r.openGrowing()
		if err != nil {
			return 0, fmt.Errorf("open: %w", err)
		}
		r.last = h
	}
	for _, m := range r.meters {
		m.sampled = sampled
	}
	from, to := s*r.steps()/rwSlices, (s+1)*r.steps()/rwSlices
	return r.rows(from, to), r.concurrent(r.last, r.meters, from, to)
}

func (r *rw) correct(speed float64) {
	for _, m := range r.meters {
		m.correct(speed)
	}
}

func (r *rw) finish() {}

func (r *rw) tally() (ops, []float64) {
	total := r.checked
	var samples []float64
	for c, cl := range r.clients {
		total.add(cl.checked)
		samples = append(samples, r.meters[c].samples...)
	}
	return total, samples
}

func (r *rw) corrupt() { r.clients[0].wantSums[0]++ }

// rwLadder replays the tapes on a pre-sized unsharded table (the floor),
// on the growing sharded handle with one client (the shard tax), and with
// two clients (the scaling).
func rwLadder(cfg runConfig, tr *tracer, rounds int, res *result) error {
	r, err := newRW(cfg)
	if err != nil {
		return fmt.Errorf("rw_resize ladder set-up: %w", err)
	}
	serial := func(h *table.Handle, m *meter) error {
		for _, cl := range r.clients {
			if err := cl.replay(h, m, 0, r.steps()); err != nil {
				return err
			}
		}
		r.checked.check(h.Len() == r.wantLen)
		return nil
	}

	tableM := tr.meter("table", 0)
	shardM := tr.meter("shard", 0)
	clientM := []*meter{tr.meter("shard", 1), tr.meter("shard", 2)}
	plainM := []*meter{{}, {}}
	var lastW2 *table.Handle // the latest two-client pass's handle, for its engine counters
	var migNs uint64         // migration time summed over the measured two-client passes
	floor := &rung{name: "rw_resize/table", run: func(id, round int32) error {
		h, err := table.Open(table.WithCapacity(join.CapacityFor(rwClients*len(r.clients[0].keys), rwGrowAt)),
			table.WithMaxLoadFactor(0), table.WithSeed(r.seed))
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		tableM.enter(id, round)
		return serial(h, tableM)
	}}
	shard1 := &rung{name: "rw_resize/shard w1", run: func(id, round int32) error {
		h, err := r.openGrowing()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		shardM.enter(id, round)
		return serial(h, shardM)
	}}
	shard2 := &rung{name: "rw_resize/shard w2", run: func(id, round int32) error {
		h, err := r.openGrowing()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		for _, m := range clientM {
			m.enter(id, round)
		}
		err = r.concurrent(h, clientM, 0, r.steps())
		lastW2 = h
		if round >= 0 {
			migNs += h.EngineStats().MigrationNanos
		}
		return err
	}}
	untraced := &rung{name: "rw_resize/shard w2 untraced", run: func(_, _ int32) error {
		h, err := r.openGrowing()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		return r.concurrent(h, plainM, 0, r.steps())
	}}
	rungs := []*rung{floor, shard1, shard2, untraced}
	if err := climb(tr, "rw_resize", rounds, rungs, append(append(clientM, plainM...), tableM, shardM)); err != nil {
		return err
	}

	res.emit("table.put_ns_per_row", "ns/row", tableM.nsPerRow(kPut))
	res.emit("table.get_ns_per_row", "ns/row", tableM.nsPerRow(kGet))
	res.emit("shard.put_ns_per_row", "ns/row", shardM.nsPerRow(kPut))
	res.emit("shard.get_ns_per_row", "ns/row", shardM.nsPerRow(kGet))
	res.emit("shard.delete_ns_per_row", "ns/row", shardM.nsPerRow(kDelete))
	res.emit("shard.put_tax_ns_per_row", "ns/row", shardM.nsPerRow(kPut)-tableM.nsPerRow(kPut))
	res.emit("shard.get_tax_ns_per_row", "ns/row", shardM.nsPerRow(kGet)-tableM.nsPerRow(kGet))
	res.emit("shard.scale_w2", "ratio", median(shard1.wall)/median(shard2.wall))

	puts := tr.perRow(clientM[0].names[kPut], rwStep, 1, 2)
	sort.Float64s(puts)
	res.emit("shard.put_ns_per_row_p99", "ns/row", quantile(puts, 0.99))

	final := lastW2.EngineStats()
	mutationNs := clientM[0].ns[kPut] + clientM[0].ns[kDelete] + clientM[1].ns[kPut] + clientM[1].ns[kDelete]
	res.emit("shard.migrations_done", "count", float64(final.MigrationsDone))
	res.emit("shard.migration_chunks", "count", float64(final.MigrationChunks))
	res.emit("shard.migration_ns_share", "ratio", float64(migNs)/float64(mutationNs))
	res.emit("shard.read_retries", "count", float64(final.ReadRetries))
	res.emit("shard.read_fallbacks", "count", float64(final.ReadFallbacks))
	res.emit("shard.view_publishes", "count", float64(final.ViewPublishes))
	emitOverhead(res, "rw_resize", shard2, untraced)

	res.count(r.checked)
	for _, cl := range r.clients {
		res.count(cl.checked)
	}
	return nil
}

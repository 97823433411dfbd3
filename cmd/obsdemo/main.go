// Command obsdemo drives a concurrent mixed read/write workload against
// a sharded table with the full observability stack attached — exec pool
// metrics and trace ring, shard engine metrics, an obs.Registry — and
// exports what it recorded.
//
// One-shot mode (the default) replays the workload, prints the
// Prometheus text exposition to stdout, and with -trace writes the exec
// scheduling trace as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev):
//
//	obsdemo -threads 8 -ops 200000 -trace trace.json
//
// With -serve the process then keeps serving the registry over HTTP:
// /metrics (Prometheus text format), /debug/vars (expvar, including the
// published registry snapshot), and /debug/pprof/* (the runtime
// profiles) — all on an explicit mux, so nothing leaks onto the default
// one:
//
//	obsdemo -threads 8 -serve :8080
//	curl localhost:8080/metrics
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/bench"
	"repro/dist"
	"repro/exec"
	"repro/obs"
	"repro/shard"
	"repro/table"
)

type config struct {
	threads   int
	initial   int
	ops       int
	updatePct int
	scheme    string
	growAt    float64
	seed      uint64
	tracePath string
	traceCap  int
	serve     string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.threads, "threads", 4, "replaying goroutines (exec pool workers)")
	flag.IntVar(&cfg.initial, "initial", 1<<14, "keys pre-filled per thread before the timed replay")
	flag.IntVar(&cfg.ops, "ops", 1<<17, "mixed operations per thread")
	flag.IntVar(&cfg.updatePct, "update-pct", 25, "percentage of operations that are updates [0,100]")
	flag.StringVar(&cfg.scheme, "scheme", string(table.SchemeLP), "table scheme (LP, RH, CH2, ...)")
	flag.Float64Var(&cfg.growAt, "grow-at", 0.85, "shard growth threshold in (0,1)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload and hashing seed")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the exec trace as Chrome trace JSON to this path")
	flag.IntVar(&cfg.traceCap, "trace-events", 1<<14, "trace ring capacity per worker")
	flag.StringVar(&cfg.serve, "serve", "", "after the replay, serve /metrics, /debug/vars and /debug/pprof on this address")
	flag.Parse()
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "obsdemo: %v\n", err)
		os.Exit(2)
	}
}

// chunksPerThread splits each thread's tape into this many pool tasks,
// so the trace shows real dynamic scheduling (claims and steals) rather
// than one monolithic task per worker.
const chunksPerThread = 8

func run(out io.Writer, cfg config) error {
	if cfg.threads < 1 {
		return fmt.Errorf("need at least 1 thread, got %d", cfg.threads)
	}
	if cfg.initial < 0 || cfg.ops < 0 {
		return fmt.Errorf("-initial %d and -ops %d must not be negative", cfg.initial, cfg.ops)
	}
	if cfg.updatePct < 0 || cfg.updatePct > 100 {
		return fmt.Errorf("-update-pct %d outside [0,100]", cfg.updatePct)
	}

	// The instrumented pool: metrics striped per worker, one trace ring
	// per worker.
	poolMetrics := exec.NewPoolMetrics(cfg.threads)
	trace := exec.NewTrace(cfg.threads, cfg.traceCap)
	pool := exec.NewPool(exec.Config{
		Workers: cfg.threads,
		Ctx:     context.Background(),
		Metrics: poolMetrics,
		Trace:   trace,
	})
	defer pool.Close()

	// The instrumented engine: a sharded handle with shard metrics
	// attached before any traffic.
	shards := 2 * cfg.threads
	h, err := table.Open(
		table.WithScheme(table.Scheme(cfg.scheme)),
		table.WithCapacity(4*cfg.initial*cfg.threads),
		table.WithMaxLoadFactor(cfg.growAt),
		table.WithSeed(cfg.seed),
		table.WithPartitions(shards),
	)
	if err != nil {
		return err
	}
	engine := h.Engine()
	engineMetrics := shard.NewMetrics(engine.Shards())
	engine.SetMetrics(engineMetrics)

	reg := obs.NewRegistry()
	poolMetrics.Register(reg, "")
	engine.Register(reg, "")
	engineMetrics.Register(reg, "")
	reg.RegisterFunc("engine_entries", "live entries across shards", func() float64 {
		return float64(h.Len())
	})
	reg.RegisterFunc("engine_load_factor", "live entries over total slot capacity", func() float64 {
		return engine.LoadFactor()
	})
	reg.RegisterFunc("engine_migrations_done", "incremental resizes completed", func() float64 {
		return float64(engine.Stats().MigrationsDone)
	})
	reg.PublishExpvar("repro_registry")

	// Per-thread tapes over per-thread generators. The demo drives load
	// rather than a differential check, so the threads' key spaces may
	// overlap — the engine is safe under that, and it keeps setup plain.
	tapes := make([]*bench.Tape, cfg.threads)
	gens := make([]dist.Generator, cfg.threads)
	for g := range tapes {
		gens[g] = dist.New(dist.Dense, cfg.seed+uint64(g)*1257787)
		tapes[g] = bench.GenRWTape(gens[g], cfg.initial, cfg.ops, cfg.updatePct, cfg.seed+uint64(g))
	}

	// Untimed pre-fill, one pool task per thread.
	if err := pool.ForEach(cfg.threads, func(_, g int) error {
		for i := 0; i < cfg.initial; i++ {
			if _, err := h.Put(gens[g].Key(uint64(i)), uint64(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The replay: each tape is split into chunks claimed dynamically, so
	// the scheduling trace shows the pool balancing uneven chunk costs.
	tasks := cfg.threads * chunksPerThread
	if err := pool.ForEach(tasks, func(_, task int) error {
		tape := tapes[task%cfg.threads]
		chunk := (tape.Len() + chunksPerThread - 1) / chunksPerThread
		lo := (task / cfg.threads) * chunk
		hi := lo + chunk
		if hi > tape.Len() {
			hi = tape.Len()
		}
		for i := lo; i < hi; i++ {
			k := tape.Keys[i]
			switch tape.Kinds[i] {
			case bench.OpInsert:
				if _, err := h.Put(k, k); err != nil {
					return err
				}
			case bench.OpDelete:
				h.Delete(k)
			default:
				h.Get(k)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "# trace: %d events written to %s (%d dropped)\n",
			len(trace.Events()), cfg.tracePath, trace.Dropped())
	}

	if cfg.serve != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(out, "# serving /metrics, /debug/vars, /debug/pprof on %s\n", cfg.serve)
		return http.ListenAndServe(cfg.serve, mux)
	}

	reg.WriteText(out)
	return nil
}

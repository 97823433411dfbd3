package obs_test

// The instrumentation-overhead benchmark behind the PR's headline claim:
// attaching shard.Metrics must leave the batch paths (GetBatch, PutBatch,
// GetOrPutBatch — timed once per batch call) and the scalar RMW path
// (Upsert — sampled at key&63==0) within ~2% of the uninstrumented
// engine. Every case runs metrics-off then metrics-on against identically
// built handles and reports ns/key. (What tracing costs a whole workload
// is the end-to-end benchmark's trace.overhead_ratio.<workload>.)
//
// It lives in package obs_test (not shard_test) because what it measures
// is the obs recording machinery — striped histograms — as wired into the
// hottest consumer.

import (
	"testing"

	"repro/dist"
	"repro/shard"
	"repro/table"
)

// reportObsNs reports ns/key for a benchmark that processed total keys.
func reportObsNs(b *testing.B, total int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/key")
}

// openObsHandle opens the sharded handle all overhead cases drive,
// attaching fresh shard.Metrics when instrumented.
func openObsHandle(b *testing.B, capacity int, instrumented bool) *table.Handle {
	b.Helper()
	h, err := table.Open(
		table.WithScheme(table.SchemeRH),
		table.WithCapacity(capacity),
		table.WithPartitions(8),
		table.WithSeed(42),
	)
	if err != nil {
		b.Fatal(err)
	}
	if instrumented {
		h.Engine().SetMetrics(shard.NewMetrics(h.Engine().Shards()))
	}
	return h
}

// benchModes orders every case's uninstrumented and instrumented runs
// back-to-back, so slow drift of the machine (thermal state, noisy
// neighbors on a shared vCPU) hits both sides of each delta about
// equally instead of biasing all "on" runs late.
var benchModes = []struct {
	name         string
	instrumented bool
}{{"off", false}, {"on", true}}

// BenchmarkObsOverhead sweeps the instrumented paths with metrics
// detached ("off") and attached ("on"): the three batch kernels plus the
// scalar upsert RMW loop.
func BenchmarkObsOverhead(b *testing.B) {
	const n = 1 << 16
	gen := dist.New(dist.Sparse, 1)
	keys := dist.Shuffled(gen.Keys(n), 2)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	out := make([]uint64, n)
	ok := make([]bool, n)
	bump := func(old uint64, exists bool) uint64 {
		if exists {
			return old + 1
		}
		return 1
	}

	for _, mode := range benchModes {
		b.Run("getbatch/"+mode.name, func(b *testing.B) {
			h := openObsHandle(b, n*2, mode.instrumented)
			if _, err := h.PutBatch(keys, vals); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.GetBatch(keys, out, ok)
			}
			reportObsNs(b, b.N*n)
		})
	}
	for _, mode := range benchModes {
		b.Run("putbatch/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := openObsHandle(b, n*2, mode.instrumented)
				b.StartTimer()
				if _, err := h.PutBatch(keys, vals); err != nil {
					b.Fatal(err)
				}
			}
			reportObsNs(b, b.N*n)
		})
	}
	for _, mode := range benchModes {
		b.Run("getorputbatch/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := openObsHandle(b, n*2, mode.instrumented)
				b.StartTimer()
				if _, err := h.GetOrPutBatch(keys, vals, out, ok); err != nil {
					b.Fatal(err)
				}
			}
			reportObsNs(b, b.N*n)
		})
	}
	for _, mode := range benchModes {
		b.Run("upsert/"+mode.name, func(b *testing.B) {
			h := openObsHandle(b, n*2, mode.instrumented)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					if _, err := h.Upsert(k, bump); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportObsNs(b, b.N*n)
		})
	}
}

package workload_test

import (
	"testing"

	"repro/dist"
	"repro/internal/fault"
	"repro/table"
	"repro/workload"
)

func TestRunRWLatencySnapshot(t *testing.T) {
	cfg := workload.RWConfig{
		Scheme: table.SchemeLP, Dist: dist.Dense,
		InitialKeys: 1 << 10, Ops: 4096, UpdatePct: 25, GrowAt: 0.85, Seed: 5,
	}
	res, err := workload.RunRW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := (4096 + 31) / 32 // default stride: every 32nd op, starting at op 0
	if res.Latency.Count != want {
		t.Fatalf("Latency.Count = %d, want %d at the default stride", res.Latency.Count, want)
	}
	if res.Latency.P50() < 0 || res.Latency.P999() < res.Latency.P50() {
		t.Fatalf("implausible latency quantiles: %v", res.Latency)
	}

	cfg.LatencySample = -1
	res, err = workload.RunRW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count != 0 {
		t.Fatalf("Latency.Count = %d with sampling disabled", res.Latency.Count)
	}

	cfg.LatencySample = 7
	res, err = workload.RunRW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := (4096 + 6) / 7; res.Latency.Count != want {
		t.Fatalf("Latency.Count = %d, want %d at stride 7", res.Latency.Count, want)
	}
}

func TestRunChaosLatencySnapshot(t *testing.T) {
	faults := fault.Config{Seed: 9}
	faults.Rates[fault.Full] = 1.0 / 256
	res, err := workload.RunChaos(workload.ChaosConfig{
		Threads: 2, InitialKeys: 256, Ops: 1024, UpdatePct: 50, Seed: 9,
		Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Panicked rounds can leave cursors mid-chunk and re-sample from the
	// resume point, so the count is bounded, not exact.
	min := res.Ops / 32
	if res.Latency.Count < min {
		t.Fatalf("Latency.Count = %d, want >= %d across all phases", res.Latency.Count, min)
	}
}

package obs

import (
	"io"
	"sync"
	"testing"
)

// TestRegistryHammer drives concurrent recording into every primitive
// while the main goroutine continuously renders the registry — the
// snapshot-during-recording race the export path must survive. Run with
// -race in CI; the final totals are asserted exact once writers stop.
func TestRegistryHammer(t *testing.T) {
	const (
		writers = 8
		perOp   = 5000
	)
	c := NewCounter(writers)
	h := NewHistogram(writers)
	r := NewRegistry()
	r.RegisterCounter("hammer_ops_total", "ops recorded by the hammer", c)
	r.RegisterHistogram(`hammer_nanos{path="hot"}`, "", h)
	r.RegisterFunc("hammer_fn", "", func() float64 { return float64(c.Value()) })

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perOp; i++ {
				c.Inc(w)
				h.Record(w, int64(w*perOp+i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	close(start)
	// Render continuously until the writers finish: every render reads
	// the same atomics the writers are hitting.
	for {
		r.WriteText(io.Discard)
		_ = r.expvarMap()
		_ = h.Snapshot().String()
		select {
		case <-done:
			goto settled
		default:
		}
	}
settled:
	const total = writers * perOp
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	snap := h.Snapshot()
	if snap.Count != total {
		t.Fatalf("histogram count = %d, want %d", snap.Count, total)
	}
	var wantSum uint64
	for w := 0; w < writers; w++ {
		for i := 0; i < perOp; i++ {
			wantSum += uint64(w*perOp + i)
		}
	}
	if snap.Sum != wantSum {
		t.Fatalf("histogram sum = %d, want %d", snap.Sum, wantSum)
	}
}

package join

import (
	"math"
	"math/bits"
	"testing"
	"time"
)

// TestCapacityForTerminates: every int sizes in bounded time, to a power
// of two that holds n at lf or, past that, the largest one an int holds.
func TestCapacityForTerminates(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, lf := range []float64{0.5, 0.7, 0.99, 0, math.NaN()} {
			for _, n := range []int{-1, 0, 1, 1000, 1 << 40, 1 << 61, 1 << 62, math.MaxInt} {
				c := CapacityFor(n, lf)
				if c < 8 || bits.OnesCount(uint(c)) != 1 {
					t.Errorf("CapacityFor(%d, %v) = %d, not a power of two >= 8", n, lf, c)
				}
				target := lf
				if !(target > 0 && target < 1) {
					target = 0.5
				}
				if float64(n) > target*float64(c) && c != 1<<(bits.UintSize-2) {
					t.Errorf("CapacityFor(%d, %v) = %d holds too few keys", n, lf, c)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("CapacityFor still sizing after 5 s")
	}
}

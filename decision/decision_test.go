package decision

import (
	"runtime"
	"testing"
)

// TestShardsFor pins the shard rule: no striping for one thread, then the
// power of two >= 2x the thread count, clamped so huge counts cannot
// overflow.
func TestShardsFor(t *testing.T) {
	for _, c := range []struct{ threads, want int }{
		{0, 0}, {1, 0}, {2, 4}, {3, 8}, {6, 16}, {1 << 40, 1 << 31},
	} {
		if got := ShardsFor(c.threads); got != c.want {
			t.Errorf("ShardsFor(%d) = %d, want %d", c.threads, got, c.want)
		}
	}
}

func TestWorkersFor(t *testing.T) {
	if got := WorkersFor(0); got != 0 {
		t.Fatalf("WorkersFor(0) = %d, want 0 (no pool)", got)
	}
	if got := WorkersFor(1); got != 0 {
		t.Fatalf("WorkersFor(1) = %d, want 0 (single-threaded)", got)
	}
	g := runtime.GOMAXPROCS(0)
	for _, threads := range []int{2, 4, 1 << 20} {
		got := WorkersFor(threads)
		want := threads
		if want > g {
			want = g
		}
		if got != want {
			t.Fatalf("WorkersFor(%d) = %d, want %d (threads clamped to GOMAXPROCS=%d)", threads, got, want, g)
		}
	}
}

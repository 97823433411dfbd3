package obs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/prng"
	"repro/stats"
)

// quantiles under test everywhere: the ones the registry exports.
var testQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// relErr is the acceptance bound for the bucketed estimate against the
// exact oracle: half a sub-bucket (2^-(subBits+1)) plus slack for the
// rank landing next to a bucket boundary.
const relErr = 1.0 / (1 << subBits)

// checkQuantiles records xs into a fresh histogram and compares every
// test quantile against the exact sort-based oracle.
func checkQuantiles(t *testing.T, name string, xs []int) {
	t.Helper()
	h := NewHistogram(4)
	for i, v := range xs {
		h.Record(i, int64(v)) // rotate stripes: the fold must not care
	}
	snap := h.Snapshot()
	if snap.Count != len(xs) {
		t.Fatalf("%s: snapshot count %d, want %d", name, snap.Count, len(xs))
	}
	var sum uint64
	for _, v := range xs {
		sum += uint64(v)
	}
	if snap.Sum != sum {
		t.Fatalf("%s: snapshot sum %d, want %d", name, snap.Sum, sum)
	}
	for _, q := range testQuantiles {
		exact := float64(stats.Quantile(xs, q))
		est := float64(snap.Quantile(q))
		bound := relErr * math.Max(exact, 1)
		if math.Abs(est-exact) > bound {
			t.Errorf("%s: q=%v estimate %v, exact %v (bound %v)", name, q, est, exact, bound)
		}
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	rng := prng.NewXoshiro256(1)
	xs := make([]int, 20000)
	for i := range xs {
		xs[i] = int(rng.Uint64n(1_000_000))
	}
	checkQuantiles(t, "uniform", xs)
}

func TestHistogramQuantileZipf(t *testing.T) {
	// Inverse-power sampling: a heavy tail spanning five decades, the
	// shape of a latency distribution with stalls.
	rng := prng.NewXoshiro256(2)
	xs := make([]int, 20000)
	for i := range xs {
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		xs[i] = int(100 / math.Pow(u, 1.2))
	}
	checkQuantiles(t, "zipf", xs)
}

func TestHistogramQuantilePoint(t *testing.T) {
	xs := make([]int, 5000)
	for i := range xs {
		xs[i] = 4242
	}
	checkQuantiles(t, "point", xs)
}

func TestHistogramQuantileSmallExact(t *testing.T) {
	// Values below 2^subBits have one bucket each: estimates are exact.
	rng := prng.NewXoshiro256(3)
	xs := make([]int, 10000)
	for i := range xs {
		xs[i] = int(rng.Uint64n(1 << subBits))
	}
	h := NewHistogram(1)
	for _, v := range xs {
		h.Record(0, int64(v))
	}
	snap := h.Snapshot()
	for _, q := range testQuantiles {
		if got, want := snap.Quantile(q), int64(stats.Quantile(xs, q)); got != want {
			t.Errorf("small values: q=%v estimate %d, exact %d (must be exact)", q, got, want)
		}
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram(1)
	h.Record(0, -5)
	h.Record(0, -1)
	h.Record(0, 7)
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count %d, want 3: clamping must not drop samples", snap.Count)
	}
	if snap.Counts[0] != 2 {
		t.Fatalf("bucket 0 count %d, want 2 clamped negatives", snap.Counts[0])
	}
	if snap.Sum != 7 {
		t.Fatalf("sum %d, want 7: clamped values contribute 0", snap.Sum)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	snap := NewHistogram(2).Snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Mean() != 0 || snap.P50() != 0 || snap.Quantile(0.999) != 0 {
		t.Fatalf("empty snapshot not all-zero: %+v", snap)
	}
	if s := snap.String(); s != "n=0" {
		t.Fatalf("empty String() = %q", s)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// The representative value of any value's bucket stays within the
	// sub-bucket error bound, across the whole range incl. boundaries.
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1025, 1 << 20, 1<<40 + 12345, 1 << 62}
	rng := prng.NewXoshiro256(4)
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Next()>>(rng.Uint64n(40)+2))
	}
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		rep := float64(bucketValue(idx))
		if math.Abs(rep-float64(v)) > relErr*math.Max(float64(v), 1) {
			t.Fatalf("bucketValue(bucketIndex(%d)) = %v: outside the %v relative bound", v, rep, relErr)
		}
	}
	// Index monotonicity over increasing values.
	prev := -1
	for exp := 0; exp < 63; exp++ {
		v := uint64(1) << exp
		if idx := bucketIndex(v); idx < prev {
			t.Fatalf("bucketIndex not monotone at 2^%d: %d < %d", exp, idx, prev)
		} else {
			prev = idx
		}
	}
}

func TestCounterStriping(t *testing.T) {
	c := NewCounter(3) // rounds to 4
	if c.Stripes() != 4 {
		t.Fatalf("Stripes() = %d, want 4", c.Stripes())
	}
	c.Add(0, 5)
	c.Inc(1)
	c.Add(2, 10)
	c.Add(6, 1) // wraps onto stripe 2
	if c.Value() != 17 {
		t.Fatalf("Value() = %d, want 17", c.Value())
	}
	if c.ValueAt(2) != 11 {
		t.Fatalf("ValueAt(2) = %d, want 11 (10 + wrapped 1)", c.ValueAt(2))
	}
}

func TestCounterStripePadding(t *testing.T) {
	if sz := reflect.TypeOf(stripe{}).Size(); sz%cacheLine != 0 {
		t.Fatalf("stripe size %d not a multiple of the %d-byte cache line", sz, cacheLine)
	}
}

func TestNowMonotone(t *testing.T) {
	a := Now()
	b := Now()
	if b < a || a < 0 {
		t.Fatalf("Now went backwards: %d then %d", a, b)
	}
}

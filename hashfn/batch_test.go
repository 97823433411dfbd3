package hashfn

import (
	"testing"

	"repro/internal/prng"
)

// TestHashBatchMatchesScalar: every family's bulk path computes exactly the
// scalar hash codes, on ragged batch sizes including zero.
func TestHashBatchMatchesScalar(t *testing.T) {
	rng := prng.NewXoshiro256(11)
	keys := make([]uint64, 257)
	for i := range keys {
		keys[i] = rng.Next()
	}
	keys[0], keys[1] = 0, ^uint64(0) // sentinel-valued keys hash like any other
	for _, f := range Families() {
		fn := f.New(42)
		for _, n := range []int{0, 1, 3, 64, 65, len(keys)} {
			dst := make([]uint64, n)
			HashBatch(fn, keys[:n], dst)
			for i := 0; i < n; i++ {
				if want := fn.Hash(keys[i]); dst[i] != want {
					t.Fatalf("%s: HashBatch[%d] = %#x, Hash = %#x", f.Name(), i, dst[i], want)
				}
			}
		}
	}
}

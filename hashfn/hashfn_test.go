package hashfn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestFamiliesRegistry(t *testing.T) {
	fams := Families()
	want := []string{"Mult", "MultAdd", "Tab", "Murmur"}
	if len(fams) != len(want) {
		t.Fatalf("Families() returned %d families, want %d", len(fams), len(want))
	}
	for i, f := range fams {
		if f.Name() != want[i] {
			t.Errorf("family %d = %s, want %s", i, f.Name(), want[i])
		}
		fn := f.New(uint64(i) + 1)
		if fn.Name() != want[i] {
			t.Errorf("function name %s != family name %s", fn.Name(), want[i])
		}
		got, err := FamilyByName(want[i])
		if err != nil || got.Name() != want[i] {
			t.Errorf("FamilyByName(%s) = %v, %v", want[i], got, err)
		}
	}
	if _, err := FamilyByName("CRC"); err == nil {
		t.Error("FamilyByName(CRC) succeeded, want error")
	}
}

// TestDeterminism: the same seed must always yield the same function.
func TestDeterminism(t *testing.T) {
	for _, f := range Families() {
		a, b := f.New(12345), f.New(12345)
		c := f.New(54321)
		differs := false
		for x := uint64(0); x < 1000; x++ {
			if a.Hash(x) != b.Hash(x) {
				t.Fatalf("%s: same seed, different hashes at x=%d", f.Name(), x)
			}
			if a.Hash(x) != c.Hash(x) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: different seeds produced identical functions", f.Name())
		}
	}
}

// TestMultKnownValues pins the multiply-shift definition: h_z(x) = x*z mod
// 2^64, top d bits.
func TestMultKnownValues(t *testing.T) {
	m := NewMult(0x9E3779B97F4A7C15)
	x := uint64(0x0123456789ABCDEF)
	want := x * 0x9E3779B97F4A7C15
	if got := m.Hash(x); got != want {
		t.Fatalf("Mult.Hash = %#x, want %#x", got, want)
	}
	// Even multipliers are made odd: 1 * (42|1).
	if got := NewMult(42).Hash(1); got != 43 {
		t.Fatalf("NewMult(42).Hash(1) = %d, want 43", got)
	}
}

// TestMurmurKnownValues pins the Murmur3 finalizer against independently
// computed values of the reference code (seed 0).
func TestMurmurKnownValues(t *testing.T) {
	m := NewMurmur(0)
	cases := map[uint64]uint64{
		0: 0,
		1: 0xb456bcfc34c2cb2c,
		2: 0x3abf2a20650683e7,
	}
	for in, want := range cases {
		if got := m.Hash(in); got != want {
			t.Errorf("Murmur(%d) = %#x, want %#x", in, got, want)
		}
	}
}

// TestMultAddMatches128BitReference cross-checks the math/bits
// implementation against a 4-limb schoolbook reference.
func TestMultAddMatches128BitReference(t *testing.T) {
	f := MultAddFamily{}.New(7).(MultAdd)
	ref := func(x uint64) uint64 {
		// (aHi:aLo)*x + (bHi:bLo) mod 2^128, high word, via 32-bit limbs.
		mul := func(a, b uint64) (hi, lo uint64) {
			a0, a1 := a&0xffffffff, a>>32
			b0, b1 := b&0xffffffff, b>>32
			w0 := a0 * b0
			t1 := a1*b0 + w0>>32
			w1 := t1 & 0xffffffff
			w2 := t1 >> 32
			w1 += a0 * b1
			hi = a1*b1 + w2 + w1>>32
			lo = a * b
			return
		}
		hi, lo := mul(f.aLo, x)
		hi += f.aHi * x
		lo2 := lo + f.bLo
		carry := uint64(0)
		if lo2 < lo {
			carry = 1
		}
		return hi + f.bHi + carry
	}
	rng := prng.NewXoshiro256(1)
	for i := 0; i < 10000; i++ {
		x := rng.Next()
		if got, want := f.Hash(x), ref(x); got != want {
			t.Fatalf("MultAdd.Hash(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

// TestTabXORStructure verifies tabulation's defining property
// h(x) = XOR of per-byte table entries.
func TestTabXORStructure(t *testing.T) {
	tab := NewTab(99)
	x := uint64(0x1122334455667788)
	var want uint64
	for i := 0; i < 8; i++ {
		want ^= tab.t[i][byte(x>>(8*i))]
	}
	if got := tab.Hash(x); got != want {
		t.Fatalf("Tab.Hash = %#x, want %#x", got, want)
	}
	// Changing one byte changes exactly one table contribution.
	y := x ^ (uint64(0xFF) << 16)
	diff := tab.Hash(x) ^ tab.Hash(y)
	if diff != tab.t[2][byte(x>>16)]^tab.t[2][byte(y>>16)] {
		t.Fatal("single-byte change did not decompose per-table")
	}
}

// TestMultCollisionBound samples the universal-family guarantee: for
// random odd z and a table of size 2^d, Pr[collision of fixed x != y] <=
// 2/2^d. We fix a pair and draw many functions.
func TestMultCollisionBound(t *testing.T) {
	const d = 8 // 256 slots
	const trials = 20000
	x, y := uint64(0xDEADBEEF), uint64(0xFEEDFACE)
	coll := 0
	for s := uint64(0); s < trials; s++ {
		f := MultFamily{}.New(s)
		if f.Hash(x)>>(64-d) == f.Hash(y)>>(64-d) {
			coll++
		}
	}
	bound := 2.0 / 256 // universal bound for Mult
	got := float64(coll) / trials
	if got > bound*1.5 { // generous slack for sampling noise
		t.Fatalf("Mult collision rate %.5f exceeds 1.5x bound %.5f", got, bound)
	}
}

// TestUniformity checks a chi-squared-style bucket balance for every
// family over sequential keys — the adversarial input for weak functions.
func TestUniformity(t *testing.T) {
	const d = 6 // 64 buckets
	const n = 1 << 16
	for _, f := range Families() {
		if f.Name() == "Mult" {
			// Mult on sequential keys is an arithmetic progression, not
			// uniform — by design (the paper exploits this for dense
			// keys). Skip the balance test for it.
			continue
		}
		fn := f.New(2024)
		counts := make([]int, 1<<d)
		for x := uint64(0); x < n; x++ {
			counts[fn.Hash(x)>>(64-d)]++
		}
		mean := float64(n) / float64(len(counts))
		var chi2 float64
		for _, c := range counts {
			dev := float64(c) - mean
			chi2 += dev * dev / mean
		}
		// 63 degrees of freedom; 99.99th percentile is ~117. Allow wide
		// slack: a catastrophically unbalanced function scores thousands.
		if chi2 > 150 {
			t.Errorf("%s: chi^2 = %.1f over 64 buckets on sequential keys (want < 150)", f.Name(), chi2)
		}
	}
}

// TestMultDenseProgression verifies the §5.2 property Mult exploits: on a
// dense key range the top-bit hash codes form an approximate arithmetic
// progression, giving near-zero collisions at low load factors.
func TestMultDenseProgression(t *testing.T) {
	const d = 16
	f := MultFamily{}.New(42)
	seen := make(map[uint64]int)
	n := 1 << 14 // quarter of the 2^16 slots
	for x := uint64(1); x <= uint64(n); x++ {
		seen[f.Hash(x)>>(64-d)]++
	}
	coll := n - len(seen)
	if frac := float64(coll) / float64(n); frac > 0.05 {
		t.Fatalf("Mult on dense keys collided %.2f%% of the time, want ~0", frac*100)
	}
}

// TestHashQuickDeterminism is a property test: Hash is a pure function.
func TestHashQuickDeterminism(t *testing.T) {
	for _, f := range Families() {
		fn := f.New(7)
		prop := func(x uint64) bool { return fn.Hash(x) == fn.Hash(x) }
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

// TestAvalanche measures bit diffusion for the engineered and strong
// functions: flipping one input bit should flip ~half the output bits.
func TestAvalanche(t *testing.T) {
	for _, name := range []string{"Tab", "Murmur"} {
		f, _ := FamilyByName(name)
		fn := f.New(3)
		rng := prng.NewXoshiro256(4)
		var totalFlips, samples float64
		for i := 0; i < 2000; i++ {
			x := rng.Next()
			bit := uint(rng.Uint64n(64))
			d := fn.Hash(x) ^ fn.Hash(x^(1<<bit))
			totalFlips += float64(popcount(d))
			samples++
		}
		avg := totalFlips / samples
		if math.Abs(avg-32) > 3 {
			t.Errorf("%s: avalanche average %.2f bits flipped, want ~32", name, avg)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

package table

import (
	"testing"
	"testing/quick"
)

func TestCmpEq4Masks(t *testing.T) {
	cases := []struct {
		l    [4]uint64
		n    uint64
		want mask4
	}{
		{[4]uint64{1, 2, 3, 4}, 5, 0b0000},
		{[4]uint64{1, 2, 3, 4}, 1, 0b0001},
		{[4]uint64{1, 2, 3, 4}, 4, 0b1000},
		{[4]uint64{7, 7, 7, 7}, 7, 0b1111},
		{[4]uint64{0, 9, 0, 9}, 0, 0b0101},
	}
	for _, c := range cases {
		if got := cmpEq4(c.l[0], c.l[1], c.l[2], c.l[3], c.n); got != c.want {
			t.Errorf("cmpEq4(%v, %d) = %04b, want %04b", c.l, c.n, got, c.want)
		}
	}
}

// TestCmpEq4MatchesScalar property-tests the lane compare against the
// scalar definition.
func TestCmpEq4MatchesScalar(t *testing.T) {
	prop := func(l0, l1, l2, l3, n uint64, pick uint8) bool {
		// Sometimes force matches so the all-different case doesn't
		// dominate the sample.
		switch pick % 5 {
		case 0:
			l0 = n
		case 1:
			l1 = n
		case 2:
			l2 = n
		case 3:
			l3 = n
		}
		var want mask4
		for i, l := range [4]uint64{l0, l1, l2, l3} {
			if l == n {
				want |= 1 << i
			}
		}
		return cmpEq4(l0, l1, l2, l3, n) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMask4First: the first set lane, and 8 — after every lane — when
// none is set, which is what lets the block probe compare a hit lane with
// a stop lane without testing either for zero.
func TestMask4First(t *testing.T) {
	firsts := map[mask4]int{
		0: 8, 0b0001: 0, 0b0010: 1, 0b0100: 2, 0b1000: 3,
		0b1010: 1, 0b1111: 0, 0b1100: 2,
	}
	for m, want := range firsts {
		if got := m.first(); got != want {
			t.Errorf("mask4(%04b).first() = %d, want %d", m, got, want)
		}
	}
}

// block4Kerns returns an LP and an LPSoA kernel of 8 slots holding key
// 10+i, value 100+i in every slot i but 5 and 7, which stay empty.
func block4Kerns() []*kern {
	ks := []*kern{
		&newLinearProbing(Config{InitialCapacity: 8}).kern,
		&newLinearProbingSoA(Config{InitialCapacity: 8}).kern,
	}
	for _, c := range ks {
		for i := uint64(0); i < 8; i++ {
			if i != 5 && i != 7 {
				c.setAtS(i<<c.ks, 10+i, 100+i)
			}
		}
	}
	return ks
}

// TestBlock4LoadsSoA: over the SoA view the block load reads slots b..b+3
// as four consecutive key words.
func TestBlock4LoadsSoA(t *testing.T) {
	c := block4Kerns()[1]
	if c.scheme != "LPSoA" {
		t.Fatalf("scheme %s, want LPSoA", c.scheme)
	}
	if k0, k1, k2, k3 := c.block4(0); k0 != 10 || k1 != 11 || k2 != 12 || k3 != 13 {
		t.Fatalf("block4(0) = %d,%d,%d,%d, want 10,11,12,13", k0, k1, k2, k3)
	}
	if k0, k1, k2, k3 := c.block4(4 << c.ks); k0 != 14 || k1 != emptyKey || k2 != 16 || k3 != emptyKey {
		t.Fatalf("block4(4) = %d,%d,%d,%d, want 14,0,16,0", k0, k1, k2, k3)
	}
}

// TestBlock4GathersAoS: over the interleaved AoS view the block load is a
// stride-2 gather that reads the key words and skips the values.
func TestBlock4GathersAoS(t *testing.T) {
	c := block4Kerns()[0]
	if c.scheme != "LP" {
		t.Fatalf("scheme %s, want LP", c.scheme)
	}
	if k0, k1, k2, k3 := c.block4(2 << c.ks); k0 != 12 || k1 != 13 || k2 != 14 || k3 != emptyKey {
		t.Fatalf("block4(2) = %d,%d,%d,%d, want 12,13,14,0", k0, k1, k2, k3)
	}
}

// TestBlock4FindEq: the lane compare over a loaded block finds a key on
// either view, and the hit lane addresses that key's value.
func TestBlock4FindEq(t *testing.T) {
	for _, c := range block4Kerns() {
		b := uint64(4) << c.ks
		k0, k1, k2, k3 := c.block4(b)
		if hit := cmpEq4(k0, k1, k2, k3, 16); hit != 0b0100 || c.valAtS(b+2<<c.ks) != 106 {
			t.Fatalf("%s: hit mask %04b, value %d", c.scheme, hit, c.valAtS(b+2<<c.ks))
		}
		if hit := cmpEq4(k0, k1, k2, k3, 13); hit != 0 {
			t.Fatalf("%s: key of another block matched, mask %04b", c.scheme, hit)
		}
	}
}

// TestBlock4FindEqOrEmpty: one block load yields both the hit mask and the
// stop mask of empty slots, on either view.
func TestBlock4FindEqOrEmpty(t *testing.T) {
	for _, c := range block4Kerns() {
		k0, k1, k2, k3 := c.block4(4 << c.ks)
		hit, stop := cmpEq4(k0, k1, k2, k3, 14), cmpEq4(k0, k1, k2, k3, emptyKey)
		if hit != 0b0001 || stop != 0b1010 {
			t.Fatalf("%s: hit %04b stop %04b, want 0001 1010", c.scheme, hit, stop)
		}
		if hit.first() >= stop.first() {
			t.Fatalf("%s: hit lane %d not before stop lane %d", c.scheme, hit.first(), stop.first())
		}
	}
}

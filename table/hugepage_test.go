package table

import "testing"

// TestHugeInterior pins the arithmetic behind makeLarge's advice: the
// advised run is exactly the whole 2 MiB-aligned pages inside the array,
// and empty when none fits.
func TestHugeInterior(t *testing.T) {
	const mb2 = hugePageBytes
	for _, c := range []struct {
		name          string
		addr, size    uintptr
		wantOff, want uintptr
	}{
		{"empty", 5 * mb2, 0, 0, 0},
		{"smaller than a page", 5 * mb2, mb2 - 1, 0, 0},
		{"one page, unaligned", 5*mb2 + 8192, mb2, 0, 0},
		{"spans a boundary, holds no page", 5*mb2 + 8192, 2*mb2 - 16384, 0, 0},
		{"one page, exactly", 5 * mb2, mb2, 0, mb2},
		{"one page inside", 5*mb2 + 8192, 2*mb2 - 8192, mb2 - 8192, mb2},
		{"aligned start, ragged end", 5 * mb2, 3*mb2 + 100, 0, 3 * mb2},
		{"ragged both ends", 5*mb2 + 4096, 8 * mb2, mb2 - 4096, 7 * mb2},
		{"aligned both ends", 4 * mb2, 32 * mb2, 0, 32 * mb2},
	} {
		off, n := hugeInterior(c.addr, c.size)
		if off != c.wantOff || n != c.want {
			t.Errorf("%s: hugeInterior(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				c.name, c.addr, c.size, off, n, c.wantOff, c.want)
		}
		if n > 0 && ((c.addr+off)%mb2 != 0 || n%mb2 != 0 || off+n > c.size) {
			t.Errorf("%s: run [%#x, +%#x) is not whole aligned pages inside the array", c.name, c.addr+off, n)
		}
	}
}

package table

import "testing"

// FuzzColumnView hammers the one unsafe construction in the kernel: the
// aosView that aliases a []pair backing array as 2*capacity
// uint64 words. A fuzzer-chosen tape of writes is applied alternately
// through the view (kc/vc) and through the typed backing (slots or
// keys/vals) on BOTH layouts, with a map oracle checked after every
// step — so a drifting index scale, a view detached from its backing,
// or an aliasing bug that only checkptr/ASan can see (the sanitizer CI
// job runs this fuzzer under both) fails loudly and minimally.
func FuzzColumnView(f *testing.F) {
	f.Add(uint8(4), []byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45})
	f.Add(uint8(1), []byte{0xff, 0x00, 0xff, 0x00})
	// Last-slot writes on a power-of-two capacity: the view's length
	// arithmetic (2*capacity words) is exercised at its boundary.
	f.Add(uint8(8), []byte{0x07, 0x0f, 0x17, 0x1f, 0x87, 0x8f})

	f.Fuzz(func(t *testing.T, capByte uint8, tape []byte) {
		capacity := int(capByte%32) + 1
		for _, lay := range []struct {
			name string
			view func(capacity int) colView
		}{
			{"aos", aosView},
			{"soa", soaView},
		} {
			cv := lay.view(capacity)
			oracleKeys := make([]uint64, capacity)
			oracleVals := make([]uint64, capacity)

			for step, b := range tape {
				slot := uint64(int(b) % capacity)
				val := uint64(step)<<8 | uint64(b)

				// Even steps write through the unsafe view, odd steps
				// through the typed backing; every combination of
				// writer and reader must agree with the oracle.
				if step%2 == 0 {
					cv.kc[slot<<cv.ks] = val
					cv.vc[(slot<<cv.ks)|cv.ks] = ^val
				} else if cv.slots != nil {
					cv.slots[slot] = pair{key: val, val: ^val}
				} else {
					cv.keys[slot] = val
					cv.vals[slot] = ^val
				}
				oracleKeys[slot], oracleVals[slot] = val, ^val

				for i := 0; i < capacity; i++ {
					s := uint64(i)
					if got := cv.kc[s<<cv.ks]; got != oracleKeys[i] {
						t.Fatalf("%s cap=%d step=%d: view key[%d] = %#x, oracle %#x", lay.name, capacity, step, i, got, oracleKeys[i])
					}
					if got := cv.vc[(s<<cv.ks)|cv.ks]; got != oracleVals[i] {
						t.Fatalf("%s cap=%d step=%d: view val[%d] = %#x, oracle %#x", lay.name, capacity, step, i, got, oracleVals[i])
					}
					var bk, bv uint64
					if cv.slots != nil {
						bk, bv = cv.slots[i].key, cv.slots[i].val
					} else {
						bk, bv = cv.keys[i], cv.vals[i]
					}
					if bk != oracleKeys[i] || bv != oracleVals[i] {
						t.Fatalf("%s cap=%d step=%d: backing[%d] = (%#x, %#x), oracle (%#x, %#x)", lay.name, capacity, step, i, bk, bv, oracleKeys[i], oracleVals[i])
					}
				}
			}
		}
	})
}

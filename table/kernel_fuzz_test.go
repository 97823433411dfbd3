package table

import (
	"errors"
	"testing"
)

// FuzzProbeKernel is the kernel-equivalence differential fuzz: a
// fuzzer-chosen operation tape is replayed against every open-addressing
// scheme (the four kernSchemes rows plus Cuckoo) and a Go map oracle,
// pinning the pre-refactor semantics the one probe kernel must
// reproduce. The key space is tiny and deliberately includes both
// sentinel keys (0 and 2^64-1), the tapes mix deletes between inserts so
// linear sequences shift entries back and QP's tombstones are created and
// recycled (its growth-disabled table crossing the in-place
// tombstone-purge rehash), and one op code flushes
// through the batched surfaces with lengths that straddle the BatchWidth
// chunk boundary.
func FuzzProbeKernel(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67})
	f.Add([]byte("put-get-delete-put-get tape with sentinels \x00\xff"))
	// A delete-heavy tape: odd op bytes bias toward Delete/Get.
	f.Add([]byte{
		0x00, 0x10, 0x01, 0x10, 0x02, 0x10, 0x00, 0x1f,
		0x01, 0x1f, 0x02, 0x1f, 0x03, 0x11, 0x04, 0x12,
		0x05, 0x40, 0x05, 0x41, 0x05, 0x7f,
	})
	// A batch-heavy tape: op 5 with lengths around BatchWidth.
	f.Add([]byte{0x05, 0x3f, 0x05, 0x40, 0x05, 0x41, 0x05, 0x81, 0x05, 0x00})
	// A put-delete tape: Puts of the same few keys around deletes and gets.
	f.Add([]byte{
		0x00, 0x12, 0x00, 0x13, 0x00, 0x14, 0x02, 0x13, 0x00, 0x15,
		0x01, 0x13, 0x00, 0x33, 0x01, 0x14, 0x00, 0x10, 0x01, 0x10,
	})

	f.Fuzz(func(t *testing.T, tape []byte) {
		for _, s := range openAddressingSchemes() {
			for _, maxLF := range []float64{0, 0.85} {
				replayTape(t, s, maxLF, tape)
			}
		}
	})
}

// tapeKey maps a tape byte onto the 16-key working set. Keys 0 and
// 2^64-1 are the sentinel-routed ones.
func tapeKey(b byte) uint64 {
	switch b & 15 {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	default:
		return uint64(b&15) * 0x9E3779B97F4A7C15
	}
}

func replayTape(t *testing.T, s Scheme, maxLF float64, tape []byte) {
	t.Helper()
	// 64 slots with a 16-key working set: growth-disabled tables never
	// legitimately fill (ErrFull is a bug), but QP's deletes build
	// tombstone pressure that forces the in-place purge rehash.
	m := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: maxLF, Seed: 7})
	oracle := map[uint64]uint64{}
	ctx := func(i int) string { return string(s) }

	checkGet := func(i int, k uint64) {
		v, ok := m.Get(k)
		wv, wok := oracle[k]
		if ok != wok || (ok && v != wv) {
			t.Fatalf("%s lf=%v op %d: Get(%#x) = %d,%v; oracle %d,%v", ctx(i), maxLF, i, k, v, ok, wv, wok)
		}
	}

	pos := 0
	next := func() (byte, bool) {
		if pos >= len(tape) {
			return 0, false
		}
		b := tape[pos]
		pos++
		return b, true
	}

	for i := 0; ; i++ {
		op, ok1 := next()
		arg, ok2 := next()
		if !ok1 || !ok2 {
			break
		}
		k := tapeKey(arg)
		switch op % 6 {
		case 0: // Put
			ins, err := tryPut(m, k, uint64(i)+1)
			if err != nil {
				t.Fatalf("%s lf=%v op %d: Put(%#x): %v", ctx(i), maxLF, i, k, err)
			}
			_, existed := oracle[k]
			if ins != !existed {
				t.Fatalf("%s op %d: Put(%#x) inserted=%v, oracle existed=%v", ctx(i), i, k, ins, existed)
			}
			oracle[k] = uint64(i) + 1
		case 1: // Get
			checkGet(i, k)
		case 2: // Delete
			del := m.Delete(k)
			_, existed := oracle[k]
			if del != existed {
				t.Fatalf("%s op %d: Delete(%#x) = %v, oracle existed=%v", ctx(i), i, k, del, existed)
			}
			delete(oracle, k)
		case 3: // GetOrPut
			v, loaded, err := getOrPut(m, k, uint64(i)+1)
			if err != nil {
				if errors.Is(err, ErrFull) {
					t.Fatalf("%s op %d: unexpected ErrFull at %d live entries", ctx(i), i, len(oracle))
				}
				t.Fatalf("%s op %d: GetOrPut error %v", ctx(i), i, err)
			}
			wv, existed := oracle[k]
			if loaded != existed || (existed && v != wv) {
				t.Fatalf("%s op %d: GetOrPut(%#x) = %d,%v; oracle %d,%v", ctx(i), i, k, v, loaded, wv, existed)
			}
			if !existed {
				oracle[k] = uint64(i) + 1
			}
		case 4: // Upsert: add arg to the stored value
			v, err := upsert(m, k, func(old uint64, exists bool) uint64 { return old + uint64(arg) + 1 })
			if err != nil {
				t.Fatalf("%s op %d: Upsert error %v", ctx(i), i, err)
			}
			want := oracle[k] + uint64(arg) + 1
			if v != want {
				t.Fatalf("%s op %d: Upsert(%#x) = %d, want %d", ctx(i), i, k, v, want)
			}
			oracle[k] = want
		case 5: // batch flush: PutBatch of arg-derived length, then a
			// full GetBatch cross-check. Lengths straddle BatchWidth so
			// chunk boundaries are crossed.
			n := int(arg) % (BatchWidth + 5)
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for j := range keys {
				b, _ := next()
				keys[j] = tapeKey(b + byte(j))
				vals[j] = uint64(i*1000 + j)
			}
			inserted, err := putBatch(m, keys, vals)
			if err != nil {
				t.Fatalf("%s op %d: PutBatch error %v", ctx(i), i, err)
			}
			wantIns := 0
			for j, bk := range keys {
				if _, existed := oracle[bk]; !existed {
					wantIns++
				}
				oracle[bk] = vals[j]
			}
			if inserted != wantIns {
				t.Fatalf("%s op %d: PutBatch inserted %d, oracle %d", ctx(i), i, inserted, wantIns)
			}
			probe := make([]uint64, 0, 2*BatchWidth+9)
			for j := 0; j < cap(probe); j++ {
				probe = append(probe, tapeKey(byte(j)+arg))
			}
			got := make([]uint64, len(probe))
			gok := make([]bool, len(probe))
			m.GetBatch(probe, got, gok)
			for j, pk := range probe {
				wv, wok := oracle[pk]
				if gok[j] != wok || (wok && got[j] != wv) {
					t.Fatalf("%s op %d: GetBatch[%d](%#x) = %d,%v; oracle %d,%v", ctx(i), i, j, pk, got[j], gok[j], wv, wok)
				}
			}
		}
	}

	// Final sweep: size, every oracle key reachable, iteration yields
	// exactly the oracle.
	if m.Len() != len(oracle) {
		t.Fatalf("%s: final Len %d, oracle %d", string(s), m.Len(), len(oracle))
	}
	for k := range oracle {
		checkGet(-1, k)
	}
	seen := 0
	rangeAll(m, func(k, v uint64) bool {
		wv, wok := oracle[k]
		if !wok || v != wv {
			t.Fatalf("%s: Range yielded %#x=%d; oracle %d,%v", string(s), k, v, wv, wok)
		}
		seen++
		return true
	})
	if seen != len(oracle) {
		t.Fatalf("%s: Range yielded %d entries, oracle %d", string(s), seen, len(oracle))
	}
}

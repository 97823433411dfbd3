package table

import "repro/internal/vec"

// This file contains the vectorized probe variants of §7 of the paper.
// The paper adds AVX-2 intrinsics to linear probing: four keys are loaded
// into a 256-bit register, compared against the probe key with one
// instruction, and the first matching lane extracted from a movemask. Go
// with only the standard library cannot emit vector instructions, so these
// methods use the portable 4-lane kernels of internal/vec, which reproduce
// the structure of that code: aligned 4-slot blocks, lane masks, and a
// first-set-bit match extraction. For AoS the four keys must be gathered
// from interleaved slots — the expensive load the paper measured on
// Haswell — whereas SoA reads them contiguously.
//
// The scalar Get/Put and these *Vec variants are semantically
// interchangeable, ErrFull included; the test suite cross-checks them on
// identical inputs.

// laneMaskFrom returns the mask of lanes >= lane, used to ignore the slots
// before the probe start in the first (aligned) block.
func laneMaskFrom(lane uint64) vec.Mask4 {
	return vec.Mask4((0xF << lane) & 0xF)
}

// gather4 loads the keys of the four AoS slots starting at block.
func (t *linearProbing) gather4(block uint64) (uint64, uint64, uint64, uint64) {
	s := t.slots[block : block+4 : block+4]
	return s[0].key, s[1].key, s[2].key, s[3].key
}

// GetVec is Get using 4-slot vectorized key comparison (the paper's
// LPAoSSIMD lookup).
func (t *linearProbing) GetVec(key uint64) (uint64, bool) {
	if isSentinelKey(key) {
		return t.sent.get(key)
	}
	i := t.home(key)
	block := i &^ 3
	valid := laneMaskFrom(i & 3)
	maxBlocks := len(t.slots)/4 + 1
	for b := 0; b < maxBlocks; b++ {
		k0, k1, k2, k3 := t.gather4(block)
		hit := vec.CmpEq4(k0, k1, k2, k3, key) & valid
		stop := vec.CmpEq4(k0, k1, k2, k3, emptyKey) & valid
		if hit != 0 || stop != 0 {
			hl, sl := 8, 8
			if hit != 0 {
				hl = hit.First()
			}
			if stop != 0 {
				sl = stop.First()
			}
			if hl < sl {
				return t.slots[block+uint64(hl)].val, true
			}
			return 0, false
		}
		valid = 0xF
		block = (block + 4) & t.mask
	}
	return 0, false
}

// PutVec is Put using 4-slot vectorized probing for the empty/tombstone
// search (the paper's LPAoSSIMD insert).
func (t *linearProbing) PutVec(key, val uint64) (bool, error) {
	if isSentinelKey(key) || t.ensureRoom() != nil {
		// The scalar Put settles the sentinel keys and a full table: an
		// update in place, or ErrFull.
		return t.Put(key, val)
	}
	i := t.home(key)
	block := i &^ 3
	valid := laneMaskFrom(i & 3)
	firstTomb := -1
	maxBlocks := len(t.slots)/4 + 1
	for b := 0; b < maxBlocks; b++ {
		k0, k1, k2, k3 := t.gather4(block)
		hit := vec.CmpEq4(k0, k1, k2, k3, key) & valid
		stop := vec.CmpEq4(k0, k1, k2, k3, emptyKey) & valid
		tomb := vec.CmpEq4(k0, k1, k2, k3, tombKey) & valid
		hl, sl := 8, 8
		if hit != 0 {
			hl = hit.First()
		}
		if stop != 0 {
			sl = stop.First()
		}
		if hl < sl {
			t.slots[block+uint64(hl)].val = val
			return false, nil
		}
		if sl < 8 {
			if firstTomb < 0 && tomb != 0 {
				if tl := tomb.First(); tl < sl {
					firstTomb = int(block) + tl
				}
			}
			if firstTomb >= 0 {
				t.slots[firstTomb] = pair{key, val}
				t.tombs--
			} else {
				t.slots[block+uint64(sl)] = pair{key, val}
			}
			t.size++
			return true, nil
		}
		if firstTomb < 0 && tomb != 0 {
			firstTomb = int(block) + tomb.First()
		}
		valid = 0xF
		block = (block + 4) & t.mask
	}
	panic("table: LP PutVec found no empty slot (table full)")
}

// GetVec is Get using 4-lane vectorized key comparison over the packed key
// column (the paper's LPSoASIMD lookup — the layout SIMD favours, since no
// gather is needed).
func (t *linearProbingSoA) GetVec(key uint64) (uint64, bool) {
	if isSentinelKey(key) {
		return t.sent.get(key)
	}
	i := t.home(key)
	block := i &^ 3
	valid := laneMaskFrom(i & 3)
	maxBlocks := len(t.keys)/4 + 1
	for b := 0; b < maxBlocks; b++ {
		hit, stop := vec.FindEqOrEmptySoA4(t.keys, int(block), key, emptyKey)
		hit &= valid
		stop &= valid
		if hit != 0 || stop != 0 {
			hl, sl := 8, 8
			if hit != 0 {
				hl = hit.First()
			}
			if stop != 0 {
				sl = stop.First()
			}
			if hl < sl {
				return t.vals[block+uint64(hl)], true
			}
			return 0, false
		}
		valid = 0xF
		block = (block + 4) & t.mask
	}
	return 0, false
}

// PutVec is Put using 4-lane vectorized probing over the key column.
func (t *linearProbingSoA) PutVec(key, val uint64) (bool, error) {
	if isSentinelKey(key) || t.ensureRoom() != nil {
		return t.Put(key, val) // as in linearProbing.PutVec
	}
	i := t.home(key)
	block := i &^ 3
	valid := laneMaskFrom(i & 3)
	firstTomb := -1
	maxBlocks := len(t.keys)/4 + 1
	for b := 0; b < maxBlocks; b++ {
		l0, l1, l2, l3 := vec.LoadSoA4(t.keys, int(block))
		hit := vec.CmpEq4(l0, l1, l2, l3, key) & valid
		stop := vec.CmpEq4(l0, l1, l2, l3, emptyKey) & valid
		tomb := vec.CmpEq4(l0, l1, l2, l3, tombKey) & valid
		hl, sl := 8, 8
		if hit != 0 {
			hl = hit.First()
		}
		if stop != 0 {
			sl = stop.First()
		}
		if hl < sl {
			t.vals[block+uint64(hl)] = val
			return false, nil
		}
		if sl < 8 {
			if firstTomb < 0 && tomb != 0 {
				if tl := tomb.First(); tl < sl {
					firstTomb = int(block) + tl
				}
			}
			if firstTomb >= 0 {
				t.keys[firstTomb] = key
				t.vals[firstTomb] = val
				t.tombs--
			} else {
				t.keys[block+uint64(sl)] = key
				t.vals[block+uint64(sl)] = val
			}
			t.size++
			return true, nil
		}
		if firstTomb < 0 && tomb != 0 {
			firstTomb = int(block) + tomb.First()
		}
		valid = 0xF
		block = (block + 4) & t.mask
	}
	panic("table: LPSoA PutVec found no empty slot (table full)")
}

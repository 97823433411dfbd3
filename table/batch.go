package table

import "math/bits"

// This file contains the vectorized probe variants of §7 of the paper.
// The paper adds AVX-2 intrinsics to linear probing: four keys are loaded
// into a 256-bit register (_mm256_load_si256), compared against the probe
// key with one instruction (_mm256_cmpeq_epi64), and the first matching
// lane extracted from a movemask (_mm256_movemask_pd). Go with only the
// standard library cannot emit vector instructions, so the kernel's one
// block probe (getVec/putVec) reproduces the structure of that code:
// aligned 4-slot blocks, branch-free lane compares packed into a 4-bit
// mask, and a first-set-bit match extraction. The block is read through
// the column view, which is where the paper's two layouts differ: under
// AoS the four keys sit two words apart, interleaved with their values —
// the gather the paper measured as the expensive load on Haswell — while
// under SoA they are four consecutive words of the key column. The shape
// (vectorized probing helps SoA more than AoS) survives the translation;
// the absolute SIMD speed-ups do not.
//
// The scalar Get/Put and these *Vec variants are semantically
// interchangeable, ErrFull included; the test suite cross-checks them on
// identical inputs.

// mask4 is a 4-bit lane mask, bit i set when lane i matched: the stand-in
// for the movemask of a 4 x 64-bit compare.
type mask4 uint8

// first returns the index of the first matching lane, or 8 when none
// matched, so a missing lane compares after every real one.
func (m mask4) first() int { return bits.TrailingZeros8(uint8(m)) }

// b2u converts a bool to 0/1; it compiles to a SETcc, without a branch.
func b2u(b bool) mask4 {
	if b {
		return 1
	}
	return 0
}

// cmpEq4 compares four keys against needle: the stand-in for
// _mm256_cmpeq_epi64 followed by a movemask.
func cmpEq4(k0, k1, k2, k3, needle uint64) mask4 {
	return b2u(k0 == needle) | b2u(k1 == needle)<<1 | b2u(k2 == needle)<<2 | b2u(k3 == needle)<<3
}

// block4 loads the keys of the aligned 4-slot block at scaled cursor b: a
// stride-2 gather under AoS, four consecutive words under SoA.
func (c *kern) block4(b uint64) (uint64, uint64, uint64, uint64) {
	kc, sone := c.kc, c.sone
	return kc[b], kc[b+sone], kc[b+2*sone], kc[b+3*sone]
}

// blockStart returns the scaled cursor of the block holding key's home
// slot and the mask of the lanes at or after it: the slots before the home
// slot are not part of key's probe sequence.
func (c *kern) blockStart(key uint64) (b uint64, valid mask4) {
	si := c.homeS(key)
	b = si &^ (3 * c.sone)
	return b, (0xF << ((si - b) >> c.ks)) & 0xF
}

// getVec is Get with 4-slot block compares (the paper's LPAoSSIMD and
// LPSoASIMD lookups).
func (c *kern) getVec(key uint64) (uint64, bool) {
	if isSentinelKey(key) {
		return c.sent.get(key)
	}
	b, valid := c.blockStart(key)
	for n := c.slotCount()/4 + 1; n > 0; n-- {
		k0, k1, k2, k3 := c.block4(b)
		hl := (cmpEq4(k0, k1, k2, k3, key) & valid).first()
		sl := (cmpEq4(k0, k1, k2, k3, emptyKey) & valid).first()
		if hl < sl {
			return c.valAtS(b + uint64(hl)<<c.ks), true
		}
		if sl < 8 {
			return 0, false
		}
		valid = 0xF
		b = (b + 4*c.sone) & c.smask
	}
	return 0, false
}

// putVec is Put using 4-slot block compares for the key, empty-slot and
// tombstone search (the paper's SIMD inserts).
func (c *kern) putVec(key, val uint64) (bool, error) {
	if isSentinelKey(key) || c.ensureRoom() != nil {
		// The scalar Put settles the sentinel keys and a full table: an
		// update in place, or ErrFull.
		return c.Put(key, val)
	}
	b, valid := c.blockStart(key)
	firstTomb := -1
	for n := c.slotCount()/4 + 1; n > 0; n-- {
		k0, k1, k2, k3 := c.block4(b)
		hl := (cmpEq4(k0, k1, k2, k3, key) & valid).first()
		sl := (cmpEq4(k0, k1, k2, k3, emptyKey) & valid).first()
		if hl < sl {
			c.setValAtS(b+uint64(hl)<<c.ks, val)
			return false, nil
		}
		if tl := (cmpEq4(k0, k1, k2, k3, tombKey) & valid).first(); firstTomb < 0 && tl < sl {
			firstTomb = int(b + uint64(tl)<<c.ks)
		}
		if sl < 8 {
			if firstTomb >= 0 {
				c.setAtS(uint64(firstTomb), key, val)
				c.tombs--
			} else {
				c.setAtS(b+uint64(sl)<<c.ks, key, val)
			}
			c.size++
			return true, nil
		}
		valid = 0xF
		b = (b + 4*c.sone) & c.smask
	}
	panic("table: " + c.scheme + " PutVec found no empty slot (table full)")
}

// GetVec is Get through the kernel's block probe over the interleaved AoS
// slots (the paper's LPAoSSIMD lookup).
func (t *linearProbing) GetVec(key uint64) (uint64, bool) { return t.getVec(key) }

// PutVec is Put through the kernel's block probe (LPAoSSIMD insert).
func (t *linearProbing) PutVec(key, val uint64) (bool, error) { return t.putVec(key, val) }

// GetVec is Get through the kernel's block probe over the packed key
// column (the paper's LPSoASIMD lookup — the layout SIMD favours, since no
// gather is needed).
func (t *linearProbingSoA) GetVec(key uint64) (uint64, bool) { return t.getVec(key) }

// PutVec is Put through the kernel's block probe (LPSoASIMD insert).
func (t *linearProbingSoA) PutVec(key, val uint64) (bool, error) { return t.putVec(key, val) }

package table

// The open-addressing probe kernel. kern implements the complete Table
// surface — scalar point operations, the single-probe read-modify-write
// primitive, the home-line touch pass with the group-interleaved lookup
// walks, the one mutating-batch driver and the one concurrent insert
// (putIfAbsentBatch) behind it, the RangeFrom walk and the diagnostics Stats
// feeds on — exactly once. A scheme is one kernSpec row of kernSchemes
// (policy.go), and New returns its table as a *kern:
//
//	LP    = kernSpec{}
//	LPSoA = kernSpec{soa: true}
//	QP    = kernSpec{quad: true}
//	RH    = kernSpec{robin: true}
//
// newKern reads the row once, at construction: probe stepping reduces to
// si += sstep; sstep += sinc, slot access to direct indexing of the
// hoisted column views (see colView), and the remaining behavioral
// switches (quad, robin) to loop-invariant booleans the hot loops keep in
// registers. The shared loops therefore compile to the same per-slot
// instruction mix as hand-written per-scheme copies would.
//
// # Scaled slot cursors
//
// Hot loops address slots through their word index in the key column —
// si = slot << ks — rather than the slot number itself: kc[si] is the
// slot's key and vc[si|ks] its value under either layout, reached with
// the ordinary x8 addressing mode. Keeping the cursor pre-scaled keeps
// the variable shift off the load's address-computation critical path,
// which is what per-probe latency is made of; the probe geometry scales
// along with it (smask, sone, sinc, slineEnd are the mask, unit step,
// step increment and line-end test in word units). A 64-byte cache line
// is always 8 words of key column (4 AoS slots or 8 SoA keys), so the
// batch walk's line-crossing test is the constant si&^7.
//
// Sentinel handling (keys 0 and 2^64-1 routed to side fields), the
// one-empty-slot invariant and the ErrFull contract of growth-disabled
// tables all live here, shared by every scheme: every table keeps at least
// one truly empty slot, so live entries plus tombstones never exceed
// capacity-1 and every probe loop ends on an empty slot.

import (
	"sync"
	"sync/atomic"

	"repro/hashfn"
)

// lineWordsM masks the within-cache-line part of a scaled cursor: 8
// words of key column per 64-byte line under either layout.
const lineWordsM = 8 - 1

// kern is the shared open-addressing core: slot storage (as a column
// view), the scheme's kernSpec row and the loop-invariant state hoisted
// from it, derived hash geometry, occupancy counters, the hash function,
// growth configuration, sentinel side fields and the lazily allocated
// batch buffer.
type kern struct {
	colView  // slot storage; also exposes slots / keys / vals to in-package diagnostics
	kernSpec // the scheme's row: quad, soa, robin

	// Scaled probe geometry (word units, see the package comment):
	// smask wraps a scaled cursor, sone is one slot, sinc the scaled
	// step increment, slineEnd the scaled line-end test mask. A key's
	// sequence starts with a step of one slot, and the step grows by
	// sinc after every probe: one slot under quad, none otherwise.
	smask    uint64
	sone     uint64
	sinc     uint64
	slineEnd uint64
	sshift   uint64 // shift - ks: scaled home cursor = hash>>sshift &^ (sone-1)
	// rEnd gates the Robin Hood early abort in the scalar lookup
	// without a flag register: it equals slineEnd under robin and ^0
	// otherwise — cursors never exceed smask, so ^0 can never match and
	// the branch predicts away for the other schemes.
	rEnd uint64

	shift  uint // 64 - log2(capacity); home = hash >> shift
	mask   uint64
	size   int // live entries in slots (sentinel-keyed entries excluded)
	tombs  int // tombstoned slots (always 0 under a linear sequence)
	fn     hashfn.Function
	maxLF  float64
	grows  int    // rehash events (growth and in-place), for Stats
	scheme string // paper-style scheme name, e.g. "LP"
	sent   sentinels
	shared sync.Mutex // putIfAbsentBatch's callers: guards size and sent among them
	batchState
}

// newKern returns an empty table of kernel scheme s, built from its
// kernSchemes row and configured by cfg.
func newKern(s Scheme, cfg Config) *kern {
	spec := kernSchemes[s]
	cfg = cfg.withDefaults()
	c := &kern{kernSpec: spec, maxLF: cfg.MaxLoadFactor, fn: cfg.Family.New(cfg.Seed), scheme: string(s)}
	c.init(cfg.InitialCapacity)
	return c
}

func (c *kern) init(capacity int) {
	if c.soa {
		c.colView = soaView(capacity)
	} else {
		c.colView = aosView(capacity)
	}
	c.shift = 64 - log2(capacity)
	c.mask = uint64(capacity - 1)
	c.smask = c.mask << c.ks
	c.sone = 1 << c.ks
	c.sshift = uint64(c.shift) - c.ks
	c.sinc = 0 // linear: a fixed one-slot step
	if c.quad {
		c.sinc = c.sone // triangular quadratic: the step grows a slot per probe
	}
	// A line's last slot: 4 AoS slots or 8 SoA keys share a 64-byte line,
	// and Robin Hood's early-abort check fires once per line (§2.4).
	c.slineEnd = lineWordsM &^ (c.sone - 1)
	c.rEnd = ^uint64(0)
	if c.robin {
		c.rEnd = c.slineEnd
	}
	c.size = 0
	c.tombs = 0
}

// scursor derives a key's probe start state from its hash code: the
// scaled home cursor and initial scaled step. The &63 lets the compiler
// emit a bare shift (no >=64 guard), and folding the cursor scaling into
// the home shift plus a low-bit clear keeps the whole derivation a
// handful of instructions — scalar lookups are short enough that the
// out-of-order window overlaps consecutive calls, so every prologue
// instruction costs throughput.
func (c *kern) scursor(hash uint64) (si, sstep uint64) {
	return (hash >> (c.sshift & 63)) &^ (c.sone - 1), c.sone
}

// keyAtS, valAtS, setAtS and setValAtS address a slot by its scaled
// cursor; they inline to direct array indexing under either layout.
func (c *kern) keyAtS(si uint64) uint64 { return c.kc[si] }
func (c *kern) valAtS(si uint64) uint64 { return c.vc[si|c.ks] }
func (c *kern) setValAtS(si, v uint64)  { c.vc[si|c.ks] = v }
func (c *kern) setAtS(si, k, v uint64) {
	c.kc[si] = k
	c.vc[si|c.ks] = v
}

// keyAt and valAt address a slot by its slot number, for the
// diagnostics and iteration paths.
func (c *kern) keyAt(i uint64) uint64 { return c.kc[i<<c.ks] }
func (c *kern) valAt(i uint64) uint64 { return c.vc[(i<<c.ks)|c.ks] }

// slotCount returns the capacity in slots.
func (c *kern) slotCount() int { return len(c.kc) >> c.ks }

// home returns the optimal slot of key: the paper's h(k, 0).
func (c *kern) home(key uint64) uint64 { return c.fn.Hash(key) >> (c.shift & 63) }

// homeS returns the scaled cursor of key's optimal slot.
func (c *kern) homeS(key uint64) uint64 {
	return (c.fn.Hash(key) >> (c.sshift & 63)) &^ (c.sone - 1)
}

// sdisp converts the scaled cursor distance si-from into a displacement
// in slots.
func (c *kern) sdisp(si, from uint64) uint64 { return ((si - from) & c.smask) >> c.ks }

// Name implements Table, returning the scheme name used in the paper.
func (c *kern) Name() string { return c.scheme }

// HashName returns the hash-function family name (e.g. "Mult").
func (c *kern) HashName() string { return c.fn.Name() }

// Len implements Table.
func (c *kern) Len() int { return c.size + c.sent.len() }

// Capacity implements Table.
func (c *kern) Capacity() int { return c.slotCount() }

// MemoryFootprint implements Table: capacity x 16 bytes under either layout.
func (c *kern) MemoryFootprint() uint64 { return uint64(c.slotCount()) * pairBytes }

// Tombstones returns the number of tombstoned slots (diagnostics; always
// zero under a linear sequence, which deletes by backward shift).
func (c *kern) Tombstones() int { return c.tombs }

// Rehashes returns the number of rehash events (growth and in-place) so
// far, for Stats.
func (c *kern) Rehashes() int { return c.grows }

// Get implements Table, including the Robin Hood cache-line-granular early
// abort when the scheme is robin.
func (c *kern) Get(key uint64) (uint64, bool) {
	if isSentinelKey(key) {
		return c.sent.get(key)
	}
	hash := c.fn.Hash(key)
	kc, smask := c.kc, c.smask
	sinc, rEnd := c.sinc, c.rEnd
	si, sstep := c.scursor(hash)
	si0 := si
	for {
		k := kc[si]
		if k == key {
			return c.valAtS(si), true
		}
		if k == emptyKey {
			return 0, false
		}
		// Early abort, checked once at the end of each cache line
		// (§2.4); see robinAbort.
		if si&rEnd == rEnd && c.robinAbort(si, si0, k) {
			return 0, false
		}
		si = (si + sstep) & smask
		sstep += sinc
		if si == si0 {
			// Cursor cycle: every slot examined, none empty. A
			// quiescent table always keeps an empty slot; only a reader
			// racing a writer can be shown none.
			return 0, false
		}
	}
}

// robinAbort reports whether the Robin Hood ordering proves the probed
// key absent at cursor si: the resident k there is closer to its home
// than the probed key — whose sequence started at cursor si0 — is to its
// own (§2.4); a poorer key would have robbed the slot during insertion.
// The probed key's displacement is its cursor distance from home, since
// displacement-ordered sequences are linear. Kept out of line so the
// hash-interface call it makes does not sit inside the probe loops'
// register allocation; it runs at most once per cache line.
//
//go:noinline
func (c *kern) robinAbort(si, si0, k uint64) bool {
	return c.sdisp(si, c.homeS(k)) < c.sdisp(si, si0)
}

// rmwHashed is the single-probe read-modify-write primitive behind RMW and
// RMWBatch: one probe sequence finds the key or its insertion point. With fn
// nil and overwrite false it is a get-or-put of val; with overwrite true it
// is a plain put; with fn set it is an upsert through fn. It returns the
// value now stored and whether the key already existed. The growth-disabled
// full check fires only when an insert is actually needed, so operations
// that resolve to an existing key keep working on a full table.
//
// Fullness is one rule for every scheme: the insert that would take the
// last truly empty slot is refused, so every probe sequence has an empty
// slot to stop on. QP's sequence covers the table (§2.3), so its insert
// finds that slot wherever it lies.
func (c *kern) rmwHashed(key, val, hash uint64, overwrite bool, fn func(uint64, bool) uint64) (uint64, bool, error) {
	if isSentinelKey(key) {
		v, existed := c.sent.rmw(key, val, overwrite, fn)
		return v, existed, nil
	}
	if c.maxLF != 0 {
		c.maybeGrow()
	} else if c.tombs > 0 && c.size+c.tombs+1 >= c.slotCount() {
		// Tombstones (quad only) stand between the table and its last
		// empty slot: shed them, so the ErrFull check below counts live
		// entries alone.
		c.rehashTo(c.slotCount())
	}
	kc, smask := c.kc, c.smask
	robin, sinc := c.robin, c.sinc
	si, sstep := c.scursor(hash)
	si0 := si
	firstTomb := -1
	for {
		k := kc[si]
		if k == key {
			if fn != nil {
				c.setValAtS(si, fn(c.valAtS(si), true))
			} else if overwrite {
				c.setValAtS(si, val)
			}
			return c.valAtS(si), true, nil
		}
		if k == emptyKey {
			if c.maxLF == 0 && c.size+1 >= c.slotCount() {
				return 0, false, errFull(c.scheme, c.size, c.slotCount())
			}
			v := val
			if fn != nil {
				v = fn(0, false)
			}
			if firstTomb >= 0 {
				c.setAtS(uint64(firstTomb), key, v)
				c.tombs--
			} else {
				c.setAtS(si, key, v)
			}
			c.size++
			return v, false, nil
		}
		if robin {
			if de := c.sdisp(si, c.homeS(k)); de < c.sdisp(si, si0) {
				// The resident is richer than us: our key cannot lie
				// further on, so it is absent. Take this slot and push
				// the rest of the displacement chain down, the
				// standard Robin Hood insert.
				if c.maxLF == 0 && c.size+1 >= c.slotCount() {
					return 0, false, errFull(c.scheme, c.size, c.slotCount())
				}
				v := val
				if fn != nil {
					v = fn(0, false)
				}
				cur := pair{k, c.valAtS(si)}
				c.setAtS(si, key, v)
				c.size++
				c.shiftChain(cur, (si+c.sone)&smask, de+1)
				return v, false, nil
			}
		} else if k == tombKey && firstTomb < 0 {
			firstTomb = int(si)
		}
		si = (si + sstep) & smask
		sstep += sinc
		if si == si0 {
			// Cursor cycle: unreachable while the table keeps its empty
			// slot, and a guard against looping should one be missing.
			return 0, false, errFull(c.scheme, c.size, c.slotCount())
		}
	}
}

// shiftChain places cur at or after cursor si, where its displacement is
// d, under the Robin Hood ordering: cur is an entry just evicted from the
// slot before si (rmwHashed) or one placed from its home cursor with d = 0
// (reinsert).
func (c *kern) shiftChain(cur pair, si, d uint64) {
	for {
		k := c.keyAtS(si)
		if k == emptyKey {
			c.setAtS(si, cur.key, cur.val)
			return
		}
		if de := c.sdisp(si, c.homeS(k)); de < d {
			evicted := pair{k, c.valAtS(si)}
			c.setAtS(si, cur.key, cur.val)
			cur = evicted
			d = de
		}
		si = (si + c.sone) & c.smask
		d++
	}
}

// Delete implements Table: Get's walk finds the key, then a quadratic
// sequence leaves a tombstone and a linear one shifts back (Knuth's
// Algorithm R, TAOCP Vol. 3, §6.4). Walking j from the hole to the first
// empty slot, the entry at j moves into the hole unless its home lies
// cyclically in (hole, j]; no tombstone is left. Under Robin Hood the
// first entry that stays is in its home slot and ends the walk (§2.4).
func (c *kern) Delete(key uint64) bool {
	if isSentinelKey(key) {
		return c.sent.delete(key)
	}
	kc, smask := c.kc, c.smask
	sinc, rEnd := c.sinc, c.rEnd
	si, sstep := c.scursor(c.fn.Hash(key))
	si0 := si
	for {
		k := kc[si]
		if k == key {
			break
		}
		if k == emptyKey || si&rEnd == rEnd && c.robinAbort(si, si0, k) {
			return false
		}
		si = (si + sstep) & smask
		sstep += sinc
		if si == si0 {
			return false
		}
	}
	c.size--
	if c.quad {
		c.setAtS(si, tombKey, 0)
		c.tombs++
		return true
	}
	for j := si; ; {
		j = (j + c.sone) & smask
		k := kc[j]
		if k == emptyKey {
			break
		}
		if (j-c.homeS(k))&smask < (j-si)&smask {
			// Home in (hole, j]: the entry stays.
			if c.robin {
				break
			}
			continue
		}
		c.setAtS(si, k, c.valAtS(j))
		si = j
	}
	c.setAtS(si, emptyKey, 0)
	return true
}

// maybeGrow rehashes when occupancy (live + tombstones) would exceed the
// configured threshold: it doubles when live entries alone demand it, and
// rehashes in place when the pressure comes from tombstones.
func (c *kern) maybeGrow() {
	if c.maxLF == 0 {
		return
	}
	threshold := int(c.maxLF * float64(c.slotCount()))
	if c.size+c.tombs+1 <= threshold {
		return
	}
	newCap := c.slotCount()
	if c.size+1 > threshold {
		newCap *= 2
	}
	c.rehashTo(newCap)
}

// rehashTo rebuilds the table with the given capacity, dropping
// tombstones.
func (c *kern) rehashTo(capacity int) {
	c.grows++
	old := c.colView
	oldSlots := len(old.kc) >> old.ks
	c.init(capacity)
	for idx := 0; idx < oldSlots; idx++ {
		si := uint64(idx) << old.ks
		k := old.kc[si]
		if k == emptyKey || k == tombKey {
			continue
		}
		c.reinsert(k, old.vc[si|old.ks])
	}
}

// reinsert places an entry known to be absent, maintaining the Robin
// Hood ordering when the scheme is robin.
func (c *kern) reinsert(key, val uint64) {
	hash := c.fn.Hash(key)
	si, sstep := c.scursor(hash)
	if c.robin {
		c.shiftChain(pair{key, val}, si, 0)
		c.size++
		return
	}
	for {
		if c.keyAtS(si) == emptyKey {
			c.setAtS(si, key, val)
			c.size++
			return
		}
		si = (si + sstep) & c.smask
		sstep += c.sinc
	}
}

// RangeFrom implements Table: the sentinel entries take the first
// sentinelPositions positions and slot i follows at sentinelPositions+i.
func (c *kern) RangeFrom(pos int, fn func(key, val uint64) bool) (next int) {
	pos, more := c.sent.rangeFrom(pos, fn)
	if !more {
		return pos
	}
	n := c.slotCount()
	for i := pos - sentinelPositions; i < n; i++ {
		k := c.keyAt(uint64(i))
		if k == emptyKey || k == tombKey {
			continue
		}
		if !fn(k, c.valAt(uint64(i))) {
			return i + 1 + sentinelPositions
		}
	}
	return n + sentinelPositions
}

// ---------------------------------------------------------------------------
// Single-probe read-modify-write surface
// ---------------------------------------------------------------------------

// RMW implements Table. On a full growth-disabled table an update of an
// existing key still succeeds (the full check fires only when an insert is
// needed).
func (c *kern) RMW(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	return c.rmwHashed(key, val, c.fn.Hash(key), overwrite, fn)
}

// RMWBatch implements Table: the one chunk loop behind every mutating
// batch. vals nil stores fn's results, out/loaded nil drops the lanes'
// results; out may alias vals. Lanes apply in slice order, so
// a duplicate key sees its earlier occurrence. It stops at the first
// failing key, leaving earlier pairs applied. A caller whose keys mostly
// exist and who passes fn should look them up with GetBatch and hand only
// the misses here, as agg.AddBatch does: every lane pays fn's indirect call
// and the mutation bookkeeping, hit or not. Each chunk opens with a
// first-probe pass, the mutation twin of GetBatch's: when nothing has to be
// shed or grown first and the home slot — hashAndTouch has just loaded it —
// holds the lane's key or is empty with room to spare, the lane is settled
// there, where rmwHashed would settle it under every probe sequence. All
// other lanes and the sentinel keys take rmwHashed, which owns ErrFull,
// tombstone recycling and the Robin Hood ordering.
func (c *kern) RMWBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	checkRMWBatch(keys, vals, out, loaded, fn != nil)
	bt := c.buf()
	lane := 0
	var adapter func(uint64, bool) uint64 // fn as rmwHashed takes it, the lane threaded through
	if fn != nil {
		adapter = func(old uint64, exists bool) uint64 { return fn(lane, old, exists) }
	}
	inserted := 0
	for lo := 0; lo < len(keys); lo += BatchWidth {
		kc := keys[lo:min(lo+BatchWidth, len(keys))]
		c.hashAndTouch(bt, kc)
		// Geometry as locals: while first holds nothing rehashes (no
		// growth, no tombstones to shed), so nothing moves it.
		first := c.maxLF == 0 && c.tombs == 0
		skc, svc := c.kc, c.vc[c.ks:]
		sshift, soneM, room := c.sshift, c.sone-1, c.slotCount()-1
		for l, k := range kc {
			lane = lo + l
			var val uint64
			if vals != nil {
				val = vals[lane]
			}
			if first && !isSentinelKey(k) {
				si := (bt.hash[l] >> (sshift & 63)) &^ soneM
				if r := skc[si]; r == k {
					if fn != nil {
						svc[si] = fn(lane, svc[si], true)
					} else if overwrite {
						svc[si] = val
					}
					if out != nil {
						out[lane], loaded[lane] = svc[si], true
					}
					continue
				} else if r == emptyKey && c.size < room {
					if fn != nil {
						val = fn(lane, 0, false)
					}
					skc[si], svc[si] = k, val
					c.size++
					inserted++
					if out != nil {
						out[lane], loaded[lane] = val, false
					}
					continue
				}
			}
			v, existed, err := c.rmwHashed(k, val, bt.hash[l], overwrite, adapter)
			if err != nil {
				return inserted, err
			}
			if out != nil {
				out[lane], loaded[lane] = v, existed
			}
			if !existed {
				inserted++
			}
		}
	}
	return inserted, nil
}

// putIfAbsentBatch is the kernel's one concurrent entry point: a get-or-put
// RMWBatch with nothing returned, for any number of goroutines on one
// growth-disabled table that never displaces (not robin) and that nothing
// else touches meanwhile; Handle.PutIfAbsentBatch makes that choice. A lane
// walks its ordinary probe sequence loading key words atomically and claims
// an empty one by compare-and-swap; the winner stores the value word
// plainly, so a caller that meets another's key may be ahead of its value —
// hence no values come back. Whatever joins the callers is the
// happens-before edge to the plain reads and single-writer calls that
// follow, and size is exact by then. Room is reserved before it is claimed:
// under c.shared a call counts free slots into size — BatchWidth at a time,
// an eighth of what is left at most, so the last ones go singly instead of
// stranding in reservations — and gives back what it did not use. So the
// table keeps its empty slot however claims interleave, and nothing left to
// reserve is ErrFull, earlier pairs applied. Tombstones count as occupied,
// never recycled; the sentinel keys take c.shared too.
func (c *kern) putIfAbsentBatch(keys, vals []uint64) (inserted int, err error) {
	checkRMWBatch(keys, vals, nil, nil, false)
	bt := readBufs.Get().(*batchBuf)
	kc, vcb, smask, sinc := c.kc, c.vc[c.ks:], c.smask, c.sinc
	sshift, soneM := c.sshift, c.sone-1
	full := c.slotCount() - c.tombs - 1 // the most size may reach: one empty slot stays
	credit := 0                         // slots reserved and not yet claimed
lanes:
	for lo := 0; lo < len(keys); lo += BatchWidth {
		chunk := keys[lo:min(lo+BatchWidth, len(keys))]
		hashfn.HashBatch(c.fn, chunk, bt.hash[:])
		for _, h := range bt.hash[:len(chunk)] { // hashAndTouch's pass, atomic beside others' claims
			atomic.LoadUint64(&kc[(h>>(sshift&63))&^soneM])
		}
		for l, k := range chunk {
			if isSentinelKey(k) {
				c.shared.Lock()
				if _, existed := c.sent.rmw(k, vals[lo+l], false, nil); !existed {
					inserted++
				}
				c.shared.Unlock()
				continue
			}
			si, sstep := c.scursor(bt.hash[l])
			for si0 := si; ; {
				r := atomic.LoadUint64(&kc[si])
				if r == k {
					break
				}
				if r != emptyKey {
					si = (si + sstep) & smask
					sstep += sinc
					if si != si0 {
						continue
					}
					// The cursor cycle of Get, a guard: the kept empty slot
					// ends the walk first.
				} else {
					if credit == 0 {
						c.shared.Lock()
						credit = min(BatchWidth, (full-c.size+7)/8)
						c.size += credit
						c.shared.Unlock()
					}
					if credit > 0 {
						if atomic.CompareAndSwapUint64(&kc[si], emptyKey, k) {
							vcb[si] = vals[lo+l]
							credit--
							inserted++
							break
						}
						continue // lost the race: look at the same slot again
					}
				}
				err = errFull(c.scheme, full, c.slotCount())
				break lanes
			}
		}
	}
	readBufs.Put(bt)
	c.shared.Lock()
	c.size -= credit
	c.shared.Unlock()
	return inserted, err
}

// ---------------------------------------------------------------------------
// Batched pipeline
// ---------------------------------------------------------------------------

// hashAndTouch opens a chunk for every batch entry point: the keys (at
// most BatchWidth) are bulk-hashed into the chunk scratch, then the
// home-line touch pass loads the home-slot key word of every lane back to
// back, before any lane is resolved. The addresses depend only on the
// hash codes, so the loads are independent and a chunk's home-line cache
// misses are in flight together; the first-probe pass that follows — the
// lookups' in getChunk*, the mutations' in RMWBatch — finds the lines
// arriving instead of paying one serialized miss per key. Only the home
// line is covered: overflow lines further along a probe sequence and the
// SoA value column are still fetched on demand. The loads are folded into
// the chunk scratch's sink, else they are dead code.
func (c *kern) hashAndTouch(bt *batchBuf, keys []uint64) {
	hashfn.HashBatch(c.fn, keys, bt.hash[:])
	kc := c.kc
	sshift, soneM := c.sshift, c.sone-1
	var sink uint64
	for _, h := range bt.hash[:len(keys)] {
		sink += kc[(h>>(sshift&63))&^soneM]
	}
	bt.sink = sink
}

// GetBatch implements Table: the chunk is bulk-hashed once, the touch
// pass puts every lane's home line in flight, a first-probe pass walks
// every lane to the end of its home cache line (at moderate load factors
// most lookups resolve right there), and unresolved lanes enter a
// round-robin walk that advances each live probe sequence one cache line
// per round — consecutive loads belong to different sequences, so the
// memory system overlaps their misses. It writes no table state (the
// chunk scratch is the call's own), so concurrent GetBatch calls on one
// table are safe, and it terminates on any slot contents — see
// walkRounds — which is what lets shard's wait-free readers run it beside
// a writer and throw the answer away if their sequence validation fails.
func (c *kern) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return getBatchImpl(c, keys, vals, ok)
}

// getChunk resolves one chunk through one of three walk variants, chosen
// once per chunk from the hoisted kernSpec state. The variants exist
// because the round-robin walk is bound by memory-level parallelism: its
// entire value is how many independent lane loads fit the out-of-order
// window, so each walk body must stay small (a shared parameterized body
// — or a walk behind a call — measurably serializes the lanes). Each
// variant still serves every scheme with its row's shape: linear covers
// LP and LPSoA (the column view folds the layouts), stepped covers QP
// (its triangular stride is si += sstep; sstep += sinc) and robin covers
// RH.
func (c *kern) getChunk(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	c.hashAndTouch(bt, keys)
	switch {
	case c.robin:
		return c.getChunkRobin(bt, keys, vals, ok)
	case c.quad:
		return c.getChunkStepped(bt, keys, vals, ok)
	default:
		return c.getChunkLinear(bt, keys, vals, ok)
	}
}

// walkRounds bounds the round-robin walks the way the cursor-cycle check
// bounds the scalar Get: a live lane examines at least one new slot of
// its sequence per round, so once this many rounds have passed every lane
// has seen the whole table without meeting its key or an empty slot and
// is a miss. A quiescent table never gets there (it keeps an empty slot);
// a reader racing a writer can be shown slots with no empty one among
// them, and its caller's sequence validation discards whatever the bound
// cut short. One counter per round, nothing per lane.
func (c *kern) walkRounds() int { return c.slotCount() + 2 }

// missLive reports as misses the lanes still live when a walk ends: none,
// unless a kernel walk's round bound ran out (or, for Cuckoo, the ways).
func missLive(live []int32, vals []uint64, ok []bool) {
	for _, l := range live {
		vals[l], ok[l] = 0, false
	}
}

// getChunkLinear is the walk for plain linear probing under either
// layout. A lane's resume state is its scaled cursor (bt.a); the walk
// yields whenever the advanced cursor enters a new cache line.
func (c *kern) getChunkLinear(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	kc, smask := c.kc, c.smask
	vcb := c.vc[c.ks:]
	sone := c.sone
	// Cursor geometry as locals: stores through vals/ok/bt could alias
	// the receiver for all the compiler knows, so reading these from c
	// inside the lane loop would reload them per lane.
	sshift, soneM := c.sshift, c.sone-1
	hits := 0
	live := bt.lane[:0]
	// First-probe pass: walk every lane from its home slot to the end of
	// the home cache line; at moderate load factors most lookups resolve
	// without ever becoming a live lane. Survivors yield at the line
	// boundary — the next slot is the first truly new (potentially
	// missing) load of the sequence.
	for l := range keys {
		key := keys[l]
		if isSentinelKey(key) {
			vals[l], ok[l] = c.sent.get(key)
			if ok[l] {
				hits++
			}
			continue
		}
		si := (bt.hash[l] >> (sshift & 63)) &^ soneM
		for {
			k := kc[si]
			if k == key {
				vals[l], ok[l] = vcb[si], true
				hits++
				break
			}
			if k == emptyKey {
				vals[l], ok[l] = 0, false
				break
			}
			si = (si + sone) & smask
			if si&lineWordsM == 0 {
				bt.a[l] = si
				live = append(live, int32(l))
				break
			}
		}
	}
	// Round-robin walk, one cache line per live lane per round: within a
	// line the walk is sequential (the load already paid for the line),
	// across lanes the line-crossing loads are independent and overlap
	// in the memory system.
	for rounds := c.walkRounds(); len(live) > 0 && rounds > 0; rounds-- {
		w := 0
		for _, l := range live {
			key := keys[l]
			si := bt.a[l]
			for {
				k := kc[si]
				if k == key {
					vals[l], ok[l] = vcb[si], true
					hits++
					break
				}
				if k == emptyKey {
					vals[l], ok[l] = 0, false
					break
				}
				si = (si + sone) & smask
				if si&lineWordsM == 0 {
					bt.a[l] = si
					live[w] = l
					w++
					break
				}
			}
		}
		live = live[:w]
	}
	missLive(live, vals, ok)
	return hits
}

// getChunkRobin is the walk under Robin Hood displacement: the
// cache-line-granular early abort fires at line ends, which is also
// where unresolved lanes yield — one ordering check per line, as in the
// scalar Get. The probed key's own displacement is its cursor distance
// from home (bt.b carries the home cursor).
func (c *kern) getChunkRobin(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	kc, smask := c.kc, c.smask
	vcb := c.vc[c.ks:]
	sone, lineEnd := c.sone, c.slineEnd
	sshift, soneM := c.sshift, c.sone-1
	hits := 0
	live := bt.lane[:0]
	for l := range keys {
		key := keys[l]
		if isSentinelKey(key) {
			vals[l], ok[l] = c.sent.get(key)
			if ok[l] {
				hits++
			}
			continue
		}
		si := (bt.hash[l] >> (sshift & 63)) &^ soneM
		si0 := si
		for {
			k := kc[si]
			if k == key {
				vals[l], ok[l] = vcb[si], true
				hits++
				break
			}
			if k == emptyKey {
				vals[l], ok[l] = 0, false
				break
			}
			if si&lineEnd == lineEnd {
				if c.sdisp(si, c.homeS(k)) < c.sdisp(si, si0) {
					vals[l], ok[l] = 0, false
					break
				}
				bt.a[l], bt.b[l] = (si+sone)&smask, si0
				live = append(live, int32(l))
				break
			}
			si = (si + sone) & smask
		}
	}
	for rounds := c.walkRounds(); len(live) > 0 && rounds > 0; rounds-- {
		w := 0
		for _, l := range live {
			key := keys[l]
			si, si0 := bt.a[l], bt.b[l]
			for {
				k := kc[si]
				if k == key {
					vals[l], ok[l] = vcb[si], true
					hits++
					break
				}
				if k == emptyKey {
					vals[l], ok[l] = 0, false
					break
				}
				if si&lineEnd == lineEnd {
					if c.sdisp(si, c.homeS(k)) < c.sdisp(si, si0) {
						vals[l], ok[l] = 0, false
						break
					}
					bt.a[l] = (si + sone) & smask
					live[w] = l
					w++
					break
				}
				si = (si + sone) & smask
			}
		}
		live = live[:w]
	}
	missLive(live, vals, ok)
	return hits
}

// getChunkStepped is the walk for QP's triangular quadratic sequence: a
// lane advances by sstep slots per probe, with sstep growing by sinc, and
// yields when the advance leaves the current cache line. bt.a carries the
// cursor and bt.b the next step.
func (c *kern) getChunkStepped(bt *batchBuf, keys, vals []uint64, ok []bool) int {
	kc, smask := c.kc, c.smask
	vcb := c.vc[c.ks:]
	sinc := c.sinc
	sshift, soneM := c.sshift, c.sone-1
	sone := c.sone
	hits := 0
	live := bt.lane[:0]
	for l := range keys {
		key := keys[l]
		if isSentinelKey(key) {
			vals[l], ok[l] = c.sent.get(key)
			if ok[l] {
				hits++
			}
			continue
		}
		hash := bt.hash[l]
		si := (hash >> (sshift & 63)) &^ soneM
		sstep := sone
		for {
			k := kc[si]
			if k == key {
				vals[l], ok[l] = vcb[si], true
				hits++
				break
			}
			if k == emptyKey {
				vals[l], ok[l] = 0, false
				break
			}
			next := (si + sstep) & smask
			sstep += sinc
			if next&^lineWordsM != si&^lineWordsM {
				bt.a[l], bt.b[l] = next, sstep
				live = append(live, int32(l))
				break
			}
			si = next
		}
	}
	for rounds := c.walkRounds(); len(live) > 0 && rounds > 0; rounds-- {
		w := 0
		for _, l := range live {
			key := keys[l]
			si, sstep := bt.a[l], bt.b[l]
			for {
				k := kc[si]
				if k == key {
					vals[l], ok[l] = vcb[si], true
					hits++
					break
				}
				if k == emptyKey {
					vals[l], ok[l] = 0, false
					break
				}
				next := (si + sstep) & smask
				sstep += sinc
				if next&^lineWordsM != si&^lineWordsM {
					bt.a[l], bt.b[l] = next, sstep
					live[w] = l
					w++
					break
				}
				si = next
			}
		}
		live = live[:w]
	}
	missLive(live, vals, ok)
	return hits
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

// Displacements returns, for every live entry, its displacement d: the
// number of probe steps from its optimal slot along the scheme's probe
// sequence (§2.2). The sum of the returned values is the table's total
// displacement; Stats derives MeanProbe/MaxProbe from them. Contiguous
// sequences compute d directly; the others replay the probe sequence per
// entry, costing O(n * avg displacement).
func (c *kern) Displacements() []int {
	out := make([]int, 0, c.size)
	slots := c.slotCount()
	for idx := 0; idx < slots; idx++ {
		k := c.keyAt(uint64(idx))
		if k == emptyKey || k == tombKey {
			continue
		}
		hash := c.fn.Hash(k)
		si, sstep := c.scursor(hash)
		target := uint64(idx) << c.ks
		if !c.quad {
			out = append(out, int(c.sdisp(target, si)))
			continue
		}
		d := 0
		for si != target {
			si = (si + sstep) & c.smask
			sstep += c.sinc
			d++
		}
		out = append(out, d)
	}
	return out
}

// ClusterLengths returns the lengths of all maximal runs of occupied
// slots (tombstones count as occupied, since probes must traverse them).
// Primary clustering shows up as a heavy tail here.
func (c *kern) ClusterLengths() []int {
	n := c.slotCount()
	occupied := func(i int) bool { return c.keyAt(uint64(i%n)) != emptyKey }
	start := 0 // anchor the circular walk at the empty slot every table keeps
	for start < n && occupied(start) {
		start++
	}
	var out []int
	run := 0
	for i := start + 1; i <= start+n; i++ {
		if occupied(i) {
			run++
		} else if run > 0 {
			out = append(out, run)
			run = 0
		}
	}
	return out
}

// ProbeSlots invokes visit for every slot a lookup of key examines, in
// probe order, ending where Get's walk ends (inclusive): at the matching
// or first empty slot, at the line end where Robin Hood's early abort
// fires, or at the last slot before the cursor cycles — or earlier if
// visit returns false. Sentinel-routed keys (0 and 2^64-1) touch no
// slots. This diagnostic feeds the §7 layout/cache analysis: the slot
// trace converts to cache-line traces under AoS (16 B/slot) or SoA
// (8 B/slot key column) layout.
func (c *kern) ProbeSlots(key uint64, visit func(slot int) bool) {
	if isSentinelKey(key) {
		return
	}
	si, sstep := c.scursor(c.fn.Hash(key))
	si0 := si
	for {
		if !visit(int(si >> c.ks)) {
			return
		}
		k := c.keyAtS(si)
		if k == key || k == emptyKey {
			return
		}
		if si&c.rEnd == c.rEnd && c.robinAbort(si, si0, k) {
			return
		}
		si = (si + sstep) & c.smask
		sstep += c.sinc
		if si == si0 {
			return
		}
	}
}

// displacementAt returns the displacement of the entry stored at slot i
// under a contiguous probe sequence. The slot must be occupied.
func (c *kern) displacementAt(i uint64) uint64 {
	return (i - c.home(c.keyAt(i))) & c.mask
}

//go:build race

package shard

// Race-detector builds: every read takes the locked slow path. The
// optimistic protocol's probes are deliberate data races (plain loads
// of slots a writer may be storing, discarded retroactively by sequence
// validation), which the detector would report on every concurrent
// read. Routing reads through the fallback keeps -race runs meaningful
// for everything else — writer serialization, migration, degradation,
// the oracle differentials — while the non-race suites (which assert
// value integrity on every read) exercise the seqlock itself.
//
// Retry/fallback accounting stays untouched here on purpose: these are
// not protocol fallbacks, and tests asserting the counters' behavior
// carry the !race tag.

func (e *Engine) readGet(s *shardState, key uint64) (uint64, bool) {
	return e.readGetSlow(s, key)
}

func (e *Engine) readRange(s *shardState, keys, vals []uint64, ok []bool) int {
	return e.readRangeSlow(s, keys, vals, ok)
}

func (e *Engine) readSnapshot(s *shardState, fn func(v *view)) {
	e.readSnapshotSlow(s, fn)
}

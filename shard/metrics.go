package shard

import "repro/obs"

// opSampleMask selects which scalar operations are timed when Metrics
// are attached: keys with the low six bits zero, i.e. roughly 1 in 64
// under any reasonable key distribution. Sampling keeps the scalar hot
// path at two clock reads per ~64 operations; batch operations are
// timed per batch (the two clock reads amortize over the whole batch),
// so they are never sampled.
const opSampleMask = 63

// Metrics is the engine's optional telemetry: the latency histograms,
// whatever costs a clock read, striped by shard index so concurrent shards
// never contend on a cache line. Attach with Engine.SetMetrics; a nil
// Metrics (the default) leaves every hook as a single atomic-pointer load.
// The read-path and publication counters are the engine's own, counted
// whether or not Metrics are attached (Engine.Register).
//
// All fields are constructed by NewMetrics; the zero value is not
// usable.
type Metrics struct {
	// Scalar per-operation latency (lock wait included), sampled by
	// opSampleMask; a write is timed into its mode's histogram.
	Get      *obs.Histogram
	Put      *obs.Histogram
	Delete   *obs.Histogram
	GetOrPut *obs.Histogram
	Upsert   *obs.Histogram

	// Whole-batch latency per batched operation and write mode, one sample
	// per call.
	GetBatch      *obs.Histogram
	PutBatch      *obs.Histogram
	GetOrPutBatch *obs.Histogram
	UpsertBatch   *obs.Histogram

	// MigrationChunk is the latency of each bounded migration step a
	// mutation (or Drain) hosts while a resize is in flight.
	MigrationChunk *obs.Histogram
	// LockWait is how long each contended acquisition of a shard's writer
	// lock waited, from its first failed try to the lock held: writers and
	// the reads that fell back to the lock alike.
	LockWait *obs.Histogram
}

// NewMetrics returns a Metrics striped for the given shard count
// (minimum 1).
func NewMetrics(shards int) *Metrics {
	if shards < 1 {
		shards = 1
	}
	return &Metrics{
		Get:            obs.NewHistogram(shards),
		Put:            obs.NewHistogram(shards),
		Delete:         obs.NewHistogram(shards),
		GetOrPut:       obs.NewHistogram(shards),
		Upsert:         obs.NewHistogram(shards),
		GetBatch:       obs.NewHistogram(shards),
		PutBatch:       obs.NewHistogram(shards),
		GetOrPutBatch:  obs.NewHistogram(shards),
		UpsertBatch:    obs.NewHistogram(shards),
		MigrationChunk: obs.NewHistogram(shards),
		LockWait:       obs.NewHistogram(shards),
	}
}

// Register files every metric with r under the conventional shard_*
// names, prefixed by prefix (use "" for the plain names).
func (m *Metrics) Register(r *obs.Registry, prefix string) {
	r.RegisterHistogram(prefix+`shard_op_nanos{op="get"}`, "sampled scalar operation latency in nanoseconds", m.Get)
	r.RegisterHistogram(prefix+`shard_op_nanos{op="put"}`, "", m.Put)
	r.RegisterHistogram(prefix+`shard_op_nanos{op="delete"}`, "", m.Delete)
	r.RegisterHistogram(prefix+`shard_op_nanos{op="get_or_put"}`, "", m.GetOrPut)
	r.RegisterHistogram(prefix+`shard_op_nanos{op="upsert"}`, "", m.Upsert)
	r.RegisterHistogram(prefix+`shard_batch_nanos{op="get"}`, "whole-batch latency in nanoseconds", m.GetBatch)
	r.RegisterHistogram(prefix+`shard_batch_nanos{op="put"}`, "", m.PutBatch)
	r.RegisterHistogram(prefix+`shard_batch_nanos{op="get_or_put"}`, "", m.GetOrPutBatch)
	r.RegisterHistogram(prefix+`shard_batch_nanos{op="upsert"}`, "", m.UpsertBatch)
	r.RegisterHistogram(prefix+"shard_migration_chunk_nanos", "bounded migration step latency in nanoseconds", m.MigrationChunk)
	r.RegisterHistogram(prefix+"shard_lock_wait_nanos", "contended shard lock acquisition wait in nanoseconds", m.LockWait)
}

// Register files the engine's own read-path and publication counters with
// r, prefixed by prefix as Metrics.Register's are. They count from New on,
// whatever SetMetrics does, so they equal Stats' ReadRetries,
// ReadFallbacks, LockParks and ViewPublishes (birth epochs included).
func (e *Engine) Register(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"shard_read_retries_total", "optimistic read attempts discarded by a writer's seqlock window", e.readRetries)
	r.RegisterCounter(prefix+"shard_read_fallbacks_total", "reads that exhausted the optimistic retry budget and took the writer lock", e.readFallbacks)
	r.RegisterCounter(prefix+"shard_lock_parks_total", "shard lock acquisitions that outlasted the yield bound and slept on the mutex", e.lockParks)
	r.RegisterCounter(prefix+"shard_view_republish_total", "shard view (epoch) publications", e.viewPublishes)
}

// write is the scalar histogram of a write's mode, by RMW's rule: Upsert
// when fn is set, else Put when overwrite, else GetOrPut.
func (m *Metrics) write(overwrite bool, fn func(old uint64, exists bool) uint64) *obs.Histogram {
	switch {
	case fn != nil:
		return m.Upsert
	case overwrite:
		return m.Put
	}
	return m.GetOrPut
}

// writeBatch is write for RMWBatch's whole-batch histograms.
func (m *Metrics) writeBatch(overwrite bool, fn func(lane int, old uint64, exists bool) uint64) *obs.Histogram {
	switch {
	case fn != nil:
		return m.UpsertBatch
	case overwrite:
		return m.PutBatch
	}
	return m.GetOrPutBatch
}

// SetMetrics attaches (or, with nil, detaches) the engine's telemetry.
// Safe to call at any time, including under concurrent traffic: hooks
// load the pointer once per operation, so an operation in flight keeps
// recording into the Metrics it started with.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics.Store(m) }

// opStart decides whether this scalar operation on key is sampled:
// non-nil Metrics plus a sampled timestamp when it is, (nil, 0) on the
// common unsampled path.
func (e *Engine) opStart(key uint64) (*Metrics, int64) {
	m := e.metrics.Load()
	if m == nil || key&opSampleMask != 0 {
		return nil, 0
	}
	return m, obs.Now()
}

// batchStart is opStart for the batched entry points: every batch is
// timed (no sampling — two clock reads amortize over the whole batch).
func (e *Engine) batchStart() (*Metrics, int64) {
	m := e.metrics.Load()
	if m == nil {
		return nil, 0
	}
	return m, obs.Now()
}

// batchHint picks the stripe for a batch's single histogram record: the
// shard of the first key, so concurrent batch callers (whose batches
// usually start on different shards) spread across stripes.
func (e *Engine) batchHint(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	return e.shardIndex(keys[0])
}

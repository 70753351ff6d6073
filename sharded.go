package wormhole

import (
	"slices"

	"github.com/repro/wormhole/internal/shard"
)

// ShardedConfig tunes a Sharded store. The zero value selects one shard
// per available CPU (capped at 16) with uniform byte-range boundaries.
type ShardedConfig struct {
	// Shards is the number of partitions.
	Shards int
	// Sample optionally supplies keys representative of the workload;
	// shard boundaries are then placed at sampled quantiles (shortened to
	// minimal distinguishing prefixes, like leaf anchors) instead of
	// uniform byte ranges, balancing skewed keyspaces.
	Sample [][]byte
}

// Sharded is a range-partitioned store composing several independent
// Wormhole indexes, each with its own writer lock and RCU domain, so
// structural writers on different shards never contend. It offers the
// same ordered point/scan surface as Index plus batched operations that
// group keys by shard to amortize routing and synchronization and to
// execute disjoint shards concurrently. All operations are safe for
// concurrent use; buffer ownership rules match Index.
type Sharded struct {
	storeView
}

// storeView is the read surface Sharded and Follower share over one
// sharded store.
type storeView struct {
	s *shard.Store
}

// NewSharded returns an empty sharded store.
func NewSharded(c ShardedConfig) *Sharded {
	return &Sharded{storeView{shard.New(shard.Options{Shards: c.Shards, Sample: c.Sample})}}
}

// NumShards returns the number of partitions.
func (v *storeView) NumShards() int { return v.s.NumShards() }

// ShardOf returns the partition that owns key.
func (sx *Sharded) ShardOf(key []byte) int { return sx.s.ShardOf(key) }

// Get returns the value stored under key.
func (v *storeView) Get(key []byte) ([]byte, bool) { return v.s.Get(key) }

// Set inserts key or replaces its value. Key and value are copied.
func (sx *Sharded) Set(key, val []byte) { sx.s.Set(key, val) }

// Del removes key, reporting whether it was present.
func (sx *Sharded) Del(key []byte) bool { return sx.s.Del(key) }

// Count returns the number of keys across all shards.
func (v *storeView) Count() int64 { return v.s.Count() }

// Footprint returns the approximate heap bytes held across all shards.
func (sx *Sharded) Footprint() int64 { return sx.s.Footprint() }

// Scan visits keys >= start in ascending order until fn returns false,
// stitching per-shard scans in key order across shard boundaries.
func (v *storeView) Scan(start []byte, fn func(key, val []byte) bool) { v.s.Scan(start, fn) }

// ScanDesc visits keys <= start in descending order until fn returns
// false, stitching per-shard scans across shard boundaries. A nil start
// scans from the largest key.
func (v *storeView) ScanDesc(start []byte, fn func(key, val []byte) bool) { v.s.ScanDesc(start, fn) }

// RangeAsc collects up to limit key/value pairs with key >= start,
// ascending.
func (v *storeView) RangeAsc(start []byte, limit int) (keys, vals [][]byte) {
	return collect(v.s.Scan, start, limit)
}

// RangeDesc collects up to limit key/value pairs with key <= start,
// descending (nil start: from the largest key).
func (v *storeView) RangeDesc(start []byte, limit int) (keys, vals [][]byte) {
	return collect(v.s.ScanDesc, start, limit)
}

// GetBatch looks up keys grouped by shard; vals[i], found[i] answer
// keys[i]. Large batches execute disjoint shards concurrently.
func (v *storeView) GetBatch(keys [][]byte) (vals [][]byte, found []bool) { return v.s.GetBatch(keys) }

// Reader returns an amortized read handle over the store: one pinned
// reader per shard.
func (v *storeView) Reader() *ShardedReader { return &ShardedReader{r: v.s.NewReader()} }

// SetBatch inserts or replaces keys[i] -> vals[i] grouped by shard;
// duplicate keys within one batch apply in batch order.
func (sx *Sharded) SetBatch(keys, vals [][]byte) { sx.s.SetBatch(keys, vals) }

// DelBatch removes keys grouped by shard, reporting presence per key.
func (sx *Sharded) DelBatch(keys [][]byte) []bool { return sx.s.DelBatch(keys) }

// ShardCounts reports the per-shard key counts, for balance diagnostics.
func (sx *Sharded) ShardCounts() []int64 { return sx.s.ShardCounts() }

// Close releases the store's durable resources (for stores opened with
// Open): it flushes and closes every shard's write-ahead log. In-flight
// readers, scans and iterators over the in-memory index are unaffected
// and may complete after Close; mutations issued after Close still apply
// in memory but are no longer logged. Idempotent, and a no-op on volatile
// stores created with NewSharded.
func (sx *Sharded) Close() error { return sx.s.Close() }

// ShardedReader is an amortized read handle over every shard: each
// shard's RCU reader registration is claimed once and reused across
// operations. It must not be used from multiple goroutines at once; call
// Close when done with it.
type ShardedReader struct {
	r *shard.Reader
}

// Get returns the value stored under key, through the owning shard's
// pinned reader.
func (r *ShardedReader) Get(key []byte) ([]byte, bool) { return r.r.Get(key) }

// GetBatch looks up keys grouped by shard through the pinned readers;
// vals[i], found[i] answer keys[i].
func (r *ShardedReader) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	vals, found = r.r.GetBatch(keys)
	// The shard reader reuses its result slices; the caller gets its own.
	return slices.Clone(vals), slices.Clone(found)
}

// Scan visits keys >= start in ascending order until fn returns false,
// through the handle's pinned per-shard readers.
func (r *ShardedReader) Scan(start []byte, fn func(key, val []byte) bool) {
	r.r.Scan(start, fn)
}

// ScanDesc visits keys <= start in descending order until fn returns
// false, through the handle's pinned per-shard readers.
func (r *ShardedReader) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	r.r.ScanDesc(start, fn)
}

// Close releases every per-shard reader registration.
func (r *ShardedReader) Close() { r.r.Close() }

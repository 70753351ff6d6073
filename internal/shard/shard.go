// Package shard implements a range-partitioned store that composes N
// independent Wormhole instances behind the shared index.Index /
// index.Ordered interfaces. Each shard is a full core.Wormhole with its
// own QSBR domain and meta writer lock, so structural writers in different
// shards never contend and reader grace periods stay short as core counts
// grow — the multicore scaling the paper targets in Figures 9/10/12.
//
// Keys are routed by an immutable range Partitioner (sampled-anchor
// quantiles via FromSample, or uniform byte ranges), which keeps shards'
// keyspaces disjoint and ordered: a cross-shard Scan is a concatenation of
// per-shard scans, never a merge. The batched API (GetBatch / SetBatch /
// DelBatch) groups keys by shard before executing, amortizing routing and
// per-shard synchronization the way netkv amortizes the wire with its
// 800-operation batches, and fans large batches out across shards.
package shard

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// defaultShards is the shard count used when Options.Shards is zero: one
// shard per available CPU, capped like the paper's 16-core NUMA node — the
// starting point the shard-sweep bench experiment refines.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallelBatch is the batch size above which the batched operations fan
// out across shards on separate goroutines; below it the goroutine
// handoff costs more than it saves.
const parallelBatch = 256

// Options configures a Store. The zero value selects one uniform-range
// shard per available CPU (at most 16) of default-configured Wormholes.
type Options struct {
	// Shards is the number of partitions (default: GOMAXPROCS, at most 16).
	Shards int
	// Sample, when non-empty, supplies keys representative of the
	// workload; boundaries are placed at sampled-anchor quantiles
	// (FromSample) instead of uniform byte ranges.
	Sample [][]byte
	// Partitioner overrides Shards and Sample with explicit boundaries.
	Partitioner *Partitioner
	// Dir, when set via Open, roots the durable layout: a MANIFEST pinning
	// the partitioner plus one WAL+snapshot directory per shard. New
	// ignores it (volatile store).
	Dir string
	// Durability configures every shard's WAL (sync policy, flush
	// interval); meaningful only with Open.
	Durability wal.Options
}

// Store is a range-partitioned composition of Wormhole indexes. All
// operations are safe for concurrent use (each shard is a thread-safe
// Wormhole); the ownership rules match package wormhole: keys and values
// are copied in.
type Store struct {
	part   *Partitioner
	shards []*core.Wormhole

	// Durable state (nil/empty when the store is volatile): one WAL+
	// snapshot pair per shard, registered as that shard's mutation hook.
	dir  string
	wals []*wal.Store
	fs   vfs.FS
	// syncAlways is set when every shard's WAL runs wal.SyncAlways: the
	// only policy under which Commit has anything to wait for.
	syncAlways bool

	// Replication epoch state (epoch.go). Durable stores persist it in
	// the MANIFEST; volatile stores keep it in memory only.
	epochMu  sync.Mutex
	epoch    uint64
	history  []EpochEntry
	fencedBy uint64
	fenced   atomic.Bool // mirrors fencedBy != 0 for lock-free write checks

	// bmx is the armed batch-path instrument bundle (SetBatchMetrics);
	// nil records nothing.
	bmx atomic.Pointer[BatchMetrics]
}

// New creates an empty sharded store.
func New(o Options) *Store {
	if o.Shards <= 0 {
		o.Shards = defaultShards()
	}
	p := o.Partitioner
	if p == nil {
		if len(o.Sample) > 0 {
			p = FromSample(o.Shards, o.Sample)
		} else {
			p = NewUniform(o.Shards)
		}
	}
	shards := make([]*core.Wormhole, p.NumShards())
	for i := range shards {
		shards[i] = core.New(core.DefaultOptions())
	}
	return &Store{part: p, shards: shards, epoch: 1, history: []EpochEntry{{Epoch: 1}}}
}

// NumShards returns the number of partitions.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardOf returns the partition that owns key.
func (s *Store) ShardOf(key []byte) int { return s.part.Locate(key) }

// Bounds returns the partitioner's boundary keys (shared slice headers; do
// not mutate). Replication ships them in the subscribe handshake: leader
// and follower must route byte-identically or per-shard streams would land
// keys in the wrong follower shard.
func (s *Store) Bounds() [][]byte { return s.part.Bounds() }

// ShardScan visits shard i's keys >= start in ascending order until fn
// returns false — one partition's slice of Scan. The follower's snapshot
// catch-up merges a streamed shard snapshot against exactly this walk.
func (s *Store) ShardScan(i int, start []byte, fn func(key, val []byte) bool) {
	s.shards[i].Scan(start, fn)
}

// Get returns the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	return s.shards[s.part.Locate(key)].Get(key)
}

// Set inserts or replaces key. Key and value are copied.
func (s *Store) Set(key, val []byte) {
	s.shards[s.part.Locate(key)].Set(key, val)
}

// Del removes key, reporting whether it was present.
func (s *Store) Del(key []byte) bool {
	return s.shards[s.part.Locate(key)].Del(key)
}

// Count returns the number of keys across all shards.
func (s *Store) Count() int64 {
	var n int64
	for _, w := range s.shards {
		n += w.Count()
	}
	return n
}

// Footprint returns the approximate heap bytes held across all shards.
func (s *Store) Footprint() int64 {
	var n int64
	for _, w := range s.shards {
		n += w.Footprint()
	}
	return n
}

// ShardCounts reports the per-shard key counts, for balance diagnostics.
func (s *Store) ShardCounts() []int64 {
	counts := make([]int64, len(s.shards))
	for i, w := range s.shards {
		counts[i] = w.Count()
	}
	return counts
}

// Scan visits keys >= start in ascending order until fn returns false,
// stitching the shards' scans in key order across shard boundaries.
func (s *Store) Scan(start []byte, fn func(key, val []byte) bool) {
	stitch(s.part, s.shards, start, false, fn)
}

// ScanDesc visits keys <= start in descending order until fn returns
// false (nil start: from the largest key), stitched like Scan.
func (s *Store) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	stitch(s.part, s.shards, start, true, fn)
}

// scanner is one shard's ordered scan source: its *core.Wormhole, or a
// pinned *core.Reader on it.
type scanner interface {
	Scan(start []byte, fn func(key, val []byte) bool)
	ScanDesc(start []byte, fn func(key, val []byte) bool)
}

// stitch runs one scan across shards: the shard owning start from start,
// then every following shard (preceding, when desc) from its end, until fn
// returns false. A nil start begins at the first (desc: last) shard's end.
// Partitions are ordered and disjoint, so concatenating per-shard scans in
// partition order is already the global order — the k-way merge a general
// partitioner would need, with zero per-key comparisons.
func stitch[S scanner](p *Partitioner, shards []S, start []byte, desc bool, fn func(key, val []byte) bool) {
	i, step := 0, 1
	if desc {
		i, step = len(shards)-1, -1
	}
	if start != nil {
		i = p.Locate(start)
	}
	more := true
	emit := func(k, v []byte) bool {
		more = fn(k, v)
		return more
	}
	for from := start; more && i >= 0 && i < len(shards); i, from = i+step, nil {
		if desc {
			shards[i].ScanDesc(from, emit)
		} else {
			shards[i].Scan(from, emit)
		}
	}
}

// group partitions batch indexes by owning shard, preserving the batch's
// relative order inside each shard so same-key operations in one batch
// keep their program order (equal keys always route to the same shard).
func (s *Store) group(keys [][]byte) [][]int {
	groups := make([][]int, len(s.shards))
	for i, k := range keys {
		g := s.part.Locate(k)
		groups[g] = append(groups[g], i)
	}
	return groups
}

// fanOut runs run(shard, indexes) for every non-empty group, on separate
// goroutines when the batch is large enough to amortize the handoff.
func (s *Store) fanOut(groups [][]int, total int, run func(shard int, idxs []int)) {
	active := 0
	for _, g := range groups {
		if len(g) > 0 {
			active++
		}
	}
	if active <= 1 || total < parallelBatch {
		for sh, g := range groups {
			if len(g) > 0 {
				run(sh, g)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for sh, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, g []int) {
			defer wg.Done()
			run(sh, g)
		}(sh, g)
	}
	wg.Wait()
}

// GetBatch looks up keys grouped by shard; vals[i], found[i] answer
// keys[i]. Results for distinct shards may be produced concurrently, and
// each shard group enters one QSBR reader section for its whole group
// instead of one per key.
func (s *Store) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	var t0 time.Time
	bmx := s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	s.fanOut(s.group(keys), len(keys), func(sh int, idxs []int) {
		s.shards[sh].GetBatchInto(keys, vals, found, idxs)
	})
	if bmx != nil {
		bmx.observeBatch(bmx.GetBatchSeconds, len(keys), t0)
	}
	return vals, found
}

// Reader is an amortized read handle over the whole store: one pinned
// core.Reader per shard, claimed once and reused, so a long-lived
// goroutine pays each shard's QSBR slot acquisition once instead of per
// request. A Reader must not be used concurrently; Close releases every
// per-shard handle.
type Reader struct {
	s  *Store
	rs []*core.Reader
	// GetBatch's results and per-shard grouping, reused by every call.
	vals   [][]byte
	found  []bool
	groups [][]int
}

// NewReader returns a read handle bound to this store.
func (s *Store) NewReader() *Reader {
	rs := make([]*core.Reader, len(s.shards))
	for i, w := range s.shards {
		rs[i] = w.NewReader()
	}
	return &Reader{s: s, rs: rs}
}

// NewReadHandle implements index.ReadPinner.
func (s *Store) NewReadHandle() index.ReadHandle { return s.NewReader() }

// Get returns the value stored under key, through the owning shard's
// pinned reader.
func (r *Reader) Get(key []byte) ([]byte, bool) {
	return r.rs[r.s.part.Locate(key)].Get(key)
}

// maxKeptBatch is the largest batch whose result slices a Reader keeps
// for its next GetBatch, and the most keys a kept grouping slice holds. A
// larger batch gets one-off results, and the next call drops a grouping
// slice it grew, so one big batch cannot pin scratch for the reader's
// life.
const maxKeptBatch = 2048

// GetBatch looks up keys grouped by shard through the pinned readers;
// vals[i], found[i] answer keys[i]. Groups run sequentially on the
// caller's goroutine (the handles are single-goroutine); use the store's
// GetBatch for fan-out across shards. The returned slices may be the
// reader's own, reused by its next GetBatch, so a warm call allocates
// nothing; the values in them follow the usual rules.
func (r *Reader) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	var t0 time.Time
	bmx := r.s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	clear(r.vals) // the last call's values, so they pin nothing
	if len(keys) > maxKeptBatch {
		vals, found = make([][]byte, len(keys)), make([]bool, len(keys))
	} else {
		r.vals = slices.Grow(r.vals[:0], len(keys))[:len(keys)]
		r.found = slices.Grow(r.found[:0], len(keys))[:len(keys)]
		vals, found = r.vals, r.found
	}
	if r.groups == nil {
		r.groups = make([][]int, len(r.rs))
	}
	for sh, idxs := range r.groups {
		r.groups[sh] = idxs[:0]
		if cap(idxs) > maxKeptBatch {
			r.groups[sh] = nil
		}
	}
	for i, k := range keys {
		sh := r.s.part.Locate(k)
		r.groups[sh] = append(r.groups[sh], i)
	}
	for sh, idxs := range r.groups {
		if len(idxs) > 0 {
			r.rs[sh].GetBatchInto(keys, vals, found, idxs)
		}
	}
	if bmx != nil {
		bmx.observeBatch(bmx.GetBatchSeconds, len(keys), t0)
	}
	return vals, found
}

// Scan visits keys >= start ascending until fn returns false, stitching
// the shards' lock-free scan cursors through the handle's pinned per-shard
// readers — a long-lived goroutine (a netkv connection) pays no per-scan
// reader registration on any shard.
func (r *Reader) Scan(start []byte, fn func(key, val []byte) bool) {
	stitch(r.s.part, r.rs, start, false, fn)
}

// ScanDesc visits keys <= start descending until fn returns false (nil
// start: from the largest key), through the pinned per-shard readers.
func (r *Reader) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	stitch(r.s.part, r.rs, start, true, fn)
}

// Close releases every per-shard reader slot.
func (r *Reader) Close() {
	for _, cr := range r.rs {
		cr.Close()
	}
	r.rs = nil
}

// SetNoWait inserts or replaces key like Store.Set but skips the
// durability wait: the write is applied, visible and logged when it
// returns. The result is the owning shard's (ShardOf) token; pass the
// largest token of each shard to Commit before acknowledging the batch.
// The write side lives on the handle, not the store, so a wrapper that
// embeds *Store cannot carry writes past its own Set unnoticed.
func (r *Reader) SetNoWait(key, val []byte) (token uint64) {
	return r.s.shards[r.s.part.Locate(key)].SetNoWait(key, val)
}

// DelNoWait removes key like Store.Del but skips the durability wait,
// returning the owning shard's token for Commit (0 when key was absent).
func (r *Reader) DelNoWait(key []byte) (found bool, token uint64) {
	return r.s.shards[r.s.part.Locate(key)].DelNoWait(key)
}

// Commit makes durable every write whose token on shard i is at most
// tokens[i], the largest token SetNoWait/DelNoWait returned for that
// shard (0: nothing to wait for). One wait per shard covers the shard's
// whole batch, and touched shards wait in parallel, so a batch costs the
// slowest shard's fsync. Unless the store syncs every write
// (wal.SyncAlways) it returns at once, with no goroutine and no
// allocation. As with Set, an fsync failure is not reported here: it
// degrades the shard and surfaces on Flush, WriteErr and Health.
func (s *Store) Commit(tokens []uint64) {
	if !s.syncAlways {
		return
	}
	var wg sync.WaitGroup
	last := -1
	for i, t := range tokens {
		if t == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(w *core.Wormhole, t uint64) {
				defer wg.Done()
				w.Barrier(t)
			}(s.shards[last], tokens[last])
		}
		last = i
	}
	if last >= 0 {
		s.shards[last].Barrier(tokens[last]) // the last shard waits inline
	}
	wg.Wait()
}

// SetBatch inserts or replaces keys[i] -> vals[i], grouped by shard, and
// returns once the batch is durable (one Commit for the whole batch).
// Duplicate keys within one batch apply in batch order.
func (s *Store) SetBatch(keys, vals [][]byte) {
	var t0 time.Time
	bmx := s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	tokens := make([]uint64, len(s.shards))
	s.fanOut(s.group(keys), len(keys), func(sh int, idxs []int) {
		w := s.shards[sh]
		for _, i := range idxs {
			tokens[sh] = max(tokens[sh], w.SetNoWait(keys[i], vals[i]))
		}
	})
	s.Commit(tokens)
	if bmx != nil {
		bmx.observeBatch(bmx.SetBatchSeconds, len(keys), t0)
	}
}

// DelBatch removes keys grouped by shard, reporting presence per key, and
// returns once the batch is durable.
func (s *Store) DelBatch(keys [][]byte) []bool {
	var t0 time.Time
	bmx := s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	found := make([]bool, len(keys))
	tokens := make([]uint64, len(s.shards))
	s.fanOut(s.group(keys), len(keys), func(sh int, idxs []int) {
		w := s.shards[sh]
		for _, i := range idxs {
			var t uint64
			found[i], t = w.DelNoWait(keys[i])
			tokens[sh] = max(tokens[sh], t)
		}
	})
	s.Commit(tokens)
	if bmx != nil {
		bmx.observeBatch(bmx.DelBatchSeconds, len(keys), t0)
	}
	return found
}

// Stats aggregates the structural statistics of every shard. Call it on a
// quiescent store.
func (s *Store) Stats() core.Stats {
	var agg core.Stats
	for _, w := range s.shards {
		st := w.Stats()
		agg.Keys += st.Keys
		agg.Leaves += st.Leaves
		agg.FatLeaves += st.FatLeaves
		agg.MetaItems += st.MetaItems
		agg.LeafItems += st.LeafItems
		agg.MetaBuckets += st.MetaBuckets
		if st.MaxAnchorLen > agg.MaxAnchorLen {
			agg.MaxAnchorLen = st.MaxAnchorLen
		}
		agg.AvgAnchorLen += st.AvgAnchorLen * float64(st.Leaves)
	}
	if agg.Leaves > 0 {
		agg.AvgAnchorLen /= float64(agg.Leaves)
	}
	return agg
}

// Package wormhole provides a fast thread-safe ordered key-value index for
// in-memory data management, implementing Wormhole (Wu, Ni, Jiang —
// EuroSys 2019).
//
// Wormhole keeps all keys in a doubly-linked list of sorted leaf nodes and
// indexes the leaves with a hash table containing every prefix of every
// leaf anchor, so a point lookup costs O(log L) hash probes in the key
// length L — independent of the number of keys — while range queries
// remain a linear scan from the first match. Compared with the O(log N)
// of B+ trees and skip lists or the O(L) of tries, lookups on large stores
// are typically several times faster (paper: up to 8.4x over a skip list,
// 4.9x over a B+ tree, 4.3x over ART, 6.6x over Masstree).
//
// Basic usage:
//
//	idx := wormhole.New()
//	idx.Set([]byte("James"), []byte("v1"))
//	v, ok := idx.Get([]byte("James"))
//	idx.Scan([]byte("J"), func(k, v []byte) bool { return true })
//
// All operations are safe for concurrent use.
//
// Set and BulkLoad copy keys and values into the index, so the caller may
// reuse its buffers at once. Values returned by Get and the
// slices passed to Scan callbacks are owned by the index and must not be
// mutated; their capacity is clipped to their length, so an append to one
// copies instead of overwriting a neighbouring item. A value stays valid
// for good. A key passed to a Scan callback is valid only until the
// callback returns, and an Iterator's Key until the next Next: leaves
// store each key after a shared prefix, and scans assemble keys into
// reused buffers. Copy a key to keep it; RangeAsc, RangeDesc, Min and Max
// return copies.
package wormhole

import (
	"github.com/repro/wormhole/internal/core"
)

// Config sizes an Index's leaves. The zero value selects the paper's
// defaults. Every Index is thread-safe and runs all §3 optimizations.
type Config struct {
	// LeafCap bounds keys per leaf node (default 128).
	LeafCap int
	// MergeSize: adjacent leaves whose combined size falls below this are
	// merged after deletions (default 2*LeafCap/3).
	MergeSize int
}

// Index is a Wormhole ordered index. Create one with New or NewConfig.
type Index struct {
	t *core.Wormhole
}

// New returns an empty thread-safe index with default configuration.
func New() *Index { return NewConfig(Config{}) }

// NewConfig returns an empty index with the given configuration.
func NewConfig(c Config) *Index {
	opt := core.DefaultOptions()
	if c.LeafCap > 0 {
		opt.LeafCap = c.LeafCap
	}
	if c.MergeSize > 0 {
		opt.MergeSize = c.MergeSize
	}
	return &Index{t: core.New(opt)}
}

// BulkLoad populates a freshly created index from strictly sorted unique
// keys in one pass — much faster than repeated Set calls. vals may be nil
// or parallel to keys. Not safe to run concurrently with other operations.
func (ix *Index) BulkLoad(keys, vals [][]byte) error { return ix.t.BulkLoad(keys, vals) }

// Get returns the value stored under key.
func (ix *Index) Get(key []byte) ([]byte, bool) { return ix.t.Get(key) }

// GetBatch looks up every key in one call: vals[i], found[i] answer
// keys[i], exactly as len(keys) sequential Gets would. The whole batch
// shares one reader registration and runs through a memory-parallel
// pipeline that keeps several keys' hash-table probes in flight at once,
// so large batches (16+) resolve substantially faster than a Get loop.
// Duplicate and missing keys are fine; value slices follow the same
// ownership rules as Get.
func (ix *Index) GetBatch(keys [][]byte) (vals [][]byte, found []bool) { return ix.t.GetBatch(keys) }

// Set inserts key or replaces its value. Key and value are copied.
func (ix *Index) Set(key, val []byte) { ix.t.Set(key, val) }

// Del removes key, reporting whether it was present.
func (ix *Index) Del(key []byte) bool { return ix.t.Del(key) }

// Count returns the number of keys in the index.
func (ix *Index) Count() int64 { return ix.t.Count() }

// Scan visits keys >= start in ascending order until fn returns false.
// A nil start scans from the smallest key. fn runs without internal locks
// held, so it may call back into the index. The key fn receives is valid
// until fn returns; copy it to keep it. The value stays valid.
func (ix *Index) Scan(start []byte, fn func(key, val []byte) bool) {
	ix.t.Scan(start, fn)
}

// ScanDesc visits keys <= start in descending order until fn returns
// false. A nil start scans from the largest key. Keys and values follow
// Scan's lifetime rules.
func (ix *Index) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	ix.t.ScanDesc(start, fn)
}

// RangeAsc collects up to limit key/value pairs with key >= start — the
// paper's RangeSearchAscending.
func (ix *Index) RangeAsc(start []byte, limit int) (keys, vals [][]byte) {
	return collect(ix.t.Scan, start, limit)
}

// RangeDesc collects up to limit key/value pairs with key <= start,
// descending (nil start: from the largest key).
func (ix *Index) RangeDesc(start []byte, limit int) (keys, vals [][]byte) {
	return collect(ix.t.ScanDesc, start, limit)
}

// Min returns (a copy of) the smallest key and its value.
func (ix *Index) Min() (key, val []byte, ok bool) { return first(collect(ix.t.Scan, nil, 1)) }

// Max returns (a copy of) the largest key and its value.
func (ix *Index) Max() (key, val []byte, ok bool) { return first(collect(ix.t.ScanDesc, nil, 1)) }

// collect gathers up to limit pairs from one scan from start. The keys are
// copies, since a scan key lives only until its callback returns; the
// values are the index's own slices. Both have cap == len.
func collect(scan func([]byte, func(k, v []byte) bool), start []byte, limit int) (keys, vals [][]byte) {
	if limit <= 0 {
		return nil, nil
	}
	keys = make([][]byte, 0, min(limit, 1024))
	vals = make([][]byte, 0, cap(keys))
	scan(start, func(k, v []byte) bool {
		keys = append(keys, append(make([]byte, 0, len(k)), k...))
		vals = append(vals, v)
		return len(keys) < limit
	})
	return keys, vals
}

// first returns collect's only pair, if it found one.
func first(keys, vals [][]byte) (key, val []byte, ok bool) {
	if len(keys) == 0 {
		return nil, nil, false
	}
	return keys[0], vals[0], true
}

// Iter returns a pull-style iterator positioned before the first key >=
// start (nil start means the smallest key), in ascending order.
func (ix *Index) Iter(start []byte) *Iterator {
	return &Iterator{it: ix.t.NewIter(start)}
}

// IterDesc returns a pull-style iterator positioned before the first key
// <= start (nil start means the largest key), in descending order.
func (ix *Index) IterDesc(start []byte) *Iterator {
	return &Iterator{it: ix.t.NewIterDesc(start)}
}

// Reader is an amortized read handle: it registers with the index's RCU
// machinery once and reuses that registration for every Get, so a
// goroutine that performs many lookups (a server connection, a worker)
// pays the per-reader setup once instead of per operation. Between calls
// the registration is quiescent, so an idle Reader never delays writers.
// A Reader must not be used from multiple goroutines at once; call Close
// when done with it.
type Reader struct {
	r *core.Reader
}

// Reader returns a read handle bound to this index.
func (ix *Index) Reader() *Reader { return &Reader{r: ix.t.NewReader()} }

// Get returns the value stored under key.
func (r *Reader) Get(key []byte) ([]byte, bool) { return r.r.Get(key) }

// GetBatch looks up every key in one call through the handle's amortized
// registration and the memory-parallel pipeline; vals[i], found[i]
// answer keys[i], exactly as len(keys) sequential Gets would.
func (r *Reader) GetBatch(keys [][]byte) (vals [][]byte, found []bool) { return r.r.GetBatch(keys) }

// Scan visits keys >= start in ascending order until fn returns false,
// through the handle's amortized registration (no per-scan reader setup).
func (r *Reader) Scan(start []byte, fn func(key, val []byte) bool) { r.r.Scan(start, fn) }

// ScanDesc visits keys <= start in descending order until fn returns
// false, through the handle's amortized registration.
func (r *Reader) ScanDesc(start []byte, fn func(key, val []byte) bool) { r.r.ScanDesc(start, fn) }

// Close releases the handle's reader registration. The Reader must not
// be used afterwards.
func (r *Reader) Close() { r.r.Close() }

// Iterator walks the index in key order (ascending from Iter, descending
// from IterDesc). It holds no locks between Next calls: the cursor
// resumes by walking the index's leaf list from its retained position
// under a long-lived reader registration that is parked between calls.
// An Iterator must not be used from multiple goroutines at once; call
// Close when abandoning it before exhaustion (a fully drained iterator
// releases its registration automatically).
type Iterator struct {
	it *core.Iter
}

// Next advances the iterator, reporting whether a pair is available.
func (i *Iterator) Next() bool { return i.it.Next() }

// Key returns the current key; valid after Next reports true, until the
// next call to Next. Copy it to keep it.
func (i *Iterator) Key() []byte { return i.it.Key() }

// Value returns the current value; valid after Next reports true.
func (i *Iterator) Value() []byte { return i.it.Value() }

// Close releases the iterator's reader registration; idempotent.
func (i *Iterator) Close() { i.it.Close() }

// Stats describes the index's internal shape.
type Stats = core.Stats

// Stats returns structural statistics. Call it on a quiescent index.
func (ix *Index) Stats() Stats { return ix.t.Stats() }

// Footprint returns the approximate heap bytes held by the index,
// including stored keys and values.
func (ix *Index) Footprint() int64 { return ix.t.Footprint() }

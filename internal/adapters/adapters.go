// Package adapters registers every index implementation under a name,
// giving the benchmark harness, the networked KV server and the
// integration tests one uniform way to instantiate the paper's five
// ordered indexes plus the Cuckoo hash table and the range-partitioned
// sharded store ("wormhole-sharded").
//
// Wormhole's core (*core.Wormhole) and the sharded store (*shard.Store)
// implement the index interfaces themselves and are registered as they
// are. The baselines are wrapped: each wrapper adds a sequential GetBatch
// and copies the key and value in Set, so every registered index follows
// index.Index's ownership rule and the caller may reuse its buffers.
package adapters

import (
	"bytes"

	"github.com/repro/wormhole/internal/art"
	"github.com/repro/wormhole/internal/btree"
	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/cuckoo"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/masstree"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/skiplist"
)

func init() {
	index.Register(index.Info{
		Name: "wormhole", ThreadSafe: true, RangeScan: true,
		New: func() index.Index { return core.New(core.DefaultOptions()) },
	})
	index.Register(index.Info{
		Name: "wormhole-sharded", ThreadSafe: true, RangeScan: true,
		New: func() index.Index { return shard.New(shard.Options{}) },
	})
	index.Register(index.Info{
		Name: "btree", ThreadSafe: false, RangeScan: true,
		New: func() index.Index { return &btreeIx{btree.New(0)} },
	})
	index.Register(index.Info{
		Name: "skiplist", ThreadSafe: false, RangeScan: true,
		New: func() index.Index { return &slIx{skiplist.New()} },
	})
	index.Register(index.Info{
		Name: "art", ThreadSafe: false, RangeScan: true,
		New: func() index.Index { return &artIx{art.New()} },
	})
	index.Register(index.Info{
		Name: "masstree", ThreadSafe: true, RangeScan: true,
		New: func() index.Index { return &mtIx{masstree.New()} },
	})
	index.Register(index.Info{
		Name: "cuckoo", ThreadSafe: true, RangeScan: false,
		New: func() index.Index { return &ckIx{cuckoo.New(0)} },
	})
}

// Baselines returns the paper's five-way comparison set (Figures 9/10/15/16).
func Baselines() []string {
	return []string{"skiplist", "btree", "art", "masstree", "wormhole"}
}

// scalarGetBatch answers a batch with sequential Gets — the reference
// semantics indextest's equivalence harness checks every backend
// against. The baseline indexes use it so batched callers (netkv, the
// harnesses) can treat all backends uniformly.
func scalarGetBatch(ix index.Index, keys [][]byte) (vals [][]byte, found []bool) {
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	for i, k := range keys {
		vals[i], found[i] = ix.Get(k)
	}
	return vals, found
}

type btreeIx struct{ t *btree.Tree }

func (ix *btreeIx) Get(k []byte) ([]byte, bool) { return ix.t.Get(k) }
func (ix *btreeIx) Set(k, v []byte)             { ix.t.Set(bytes.Clone(k), bytes.Clone(v)) }
func (ix *btreeIx) Del(k []byte) bool           { return ix.t.Del(k) }
func (ix *btreeIx) Count() int64                { return ix.t.Count() }
func (ix *btreeIx) Footprint() int64            { return ix.t.Footprint() }
func (ix *btreeIx) GetBatch(keys [][]byte) ([][]byte, []bool) {
	return scalarGetBatch(ix, keys)
}
func (ix *btreeIx) Scan(s []byte, fn func(k, v []byte) bool) {
	ix.t.Scan(s, fn)
}

type slIx struct{ t *skiplist.List }

func (ix *slIx) Get(k []byte) ([]byte, bool) { return ix.t.Get(k) }
func (ix *slIx) Set(k, v []byte)             { ix.t.Set(bytes.Clone(k), bytes.Clone(v)) }
func (ix *slIx) Del(k []byte) bool           { return ix.t.Del(k) }
func (ix *slIx) Count() int64                { return ix.t.Count() }
func (ix *slIx) Footprint() int64            { return ix.t.Footprint() }
func (ix *slIx) GetBatch(keys [][]byte) ([][]byte, []bool) {
	return scalarGetBatch(ix, keys)
}
func (ix *slIx) Scan(s []byte, fn func(k, v []byte) bool) {
	ix.t.Scan(s, fn)
}

type artIx struct{ t *art.Tree }

func (ix *artIx) Get(k []byte) ([]byte, bool) { return ix.t.Get(k) }
func (ix *artIx) Set(k, v []byte)             { ix.t.Set(bytes.Clone(k), bytes.Clone(v)) }
func (ix *artIx) Del(k []byte) bool           { return ix.t.Del(k) }
func (ix *artIx) Count() int64                { return ix.t.Count() }
func (ix *artIx) Footprint() int64            { return ix.t.Footprint() }
func (ix *artIx) GetBatch(keys [][]byte) ([][]byte, []bool) {
	return scalarGetBatch(ix, keys)
}
func (ix *artIx) Scan(s []byte, fn func(k, v []byte) bool) {
	ix.t.Scan(s, fn)
}

type mtIx struct{ t *masstree.Tree }

func (ix *mtIx) Get(k []byte) ([]byte, bool) { return ix.t.Get(k) }
func (ix *mtIx) Set(k, v []byte)             { ix.t.Set(bytes.Clone(k), bytes.Clone(v)) }
func (ix *mtIx) Del(k []byte) bool           { return ix.t.Del(k) }
func (ix *mtIx) Count() int64                { return ix.t.Count() }
func (ix *mtIx) Footprint() int64            { return ix.t.Footprint() }
func (ix *mtIx) GetBatch(keys [][]byte) ([][]byte, []bool) {
	return scalarGetBatch(ix, keys)
}
func (ix *mtIx) Scan(s []byte, fn func(k, v []byte) bool) {
	ix.t.Scan(s, fn)
}

type ckIx struct{ t *cuckoo.Table }

func (ix *ckIx) Get(k []byte) ([]byte, bool) { return ix.t.Get(k) }
func (ix *ckIx) Set(k, v []byte)             { ix.t.Set(bytes.Clone(k), bytes.Clone(v)) }
func (ix *ckIx) Del(k []byte) bool           { return ix.t.Del(k) }
func (ix *ckIx) Count() int64                { return ix.t.Count() }
func (ix *ckIx) Footprint() int64            { return ix.t.Footprint() }
func (ix *ckIx) GetBatch(keys [][]byte) ([][]byte, []bool) {
	return scalarGetBatch(ix, keys)
}

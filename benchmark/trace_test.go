package main

import (
	"testing"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
)

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{5, 10}, {0, 3}}, 8},
		{[]interval{{0, 10}, {5, 15}, {20, 30}}, 25}, // two shards' calls overlapping
		{[]interval{{0, 10}, {2, 3}, {4, 12}}, 12},
	} {
		if got := covered(tc.ivs); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

// A root's time is split between the layers without loss or double
// counting, also where store calls overlap.
func TestLayersPartitionTheRoot(t *testing.T) {
	tr := newTracer(16, 2)
	root := tr.beginBatch()
	a, b, f := tr.alloc(), tr.alloc(), tr.alloc()
	tr.put(span{id: a, parent: root, req: root, name: spanSet, ops: 1, start: 110, end: 160})
	tr.put(span{id: b, parent: root, req: root, name: spanGetBatch, ops: 3, start: 120, end: 180})
	tr.put(span{id: f, parent: a, req: root, name: spanSync, start: 130, end: 150})
	tr.endBatch(root, 100, 4)
	tr.spans[root-1].end = 200
	lt := tr.layers()
	if lt.total != 100 || lt.self != 30 || lt.store != 50 || lt.vfs != 20 || lt.malformed != 0 {
		t.Errorf("total %d self %d store %d vfs %d malformed %d, want 100 30 50 20 0", lt.total, lt.self, lt.store, lt.vfs, lt.malformed)
	}
	if cs := lt.byCall[spanGetBatch]; cs == nil || cs.ops != 3 || cs.ns != 60 {
		t.Errorf("GetBatch calls: %+v", cs)
	}
}

// netkv picks `process` or `processSharded` from the interfaces its index
// offers. Seen from the store, `process` is one handle Get per op and
// `processSharded` is one ShardOf per op with Gets batched per shard. The
// wrappers must leave each store on its own path.
func TestWrappedServerKeepsItsPath(t *testing.T) {
	const n = 32
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte{byte('A' + i%26), byte('a' + i/26), 'k'}
	}
	roundTrip := func(tr *tracer, ix index.Index) layerTimes {
		srv, err := netkv.Serve("127.0.0.1:0", ix)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := netkv.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, k := range keys {
			c.QueueSet(k, []byte("v"))
		}
		if _, err := c.Flush(); err != nil { // outside any request: not traced
			t.Fatal(err)
		}
		for _, k := range keys {
			c.QueueGet(k)
		}
		root := tr.beginBatch()
		t0 := now()
		resps, err := c.Flush()
		tr.endBatch(root, t0, n)
		if err != nil || len(resps) != n {
			t.Fatal(err, len(resps))
		}
		for i, rp := range resps {
			if rp.Status != netkv.StatusOK {
				t.Errorf("Get %d: status %d", i, rp.Status)
			}
		}
		return tr.layers()
	}

	info, _ := index.Lookup("wormhole")
	plain := info.New()
	if err := wrapsAll(plain); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(256, 2)
	lt := roundTrip(tr, tr.wrapIndex(plain))
	if cs := lt.byCall[spanGet]; cs == nil || cs.calls != n || lt.byCall[spanGetBatch] != nil || tr.locates.Load() != 0 {
		t.Errorf("unsharded index: Get calls %+v, GetBatch %+v, ShardOf %d: not the `process` path", cs, lt.byCall[spanGetBatch], tr.locates.Load())
	}

	tr = newTracer(256, 2)
	lt = roundTrip(tr, tr.wrapShards(shard.New(shard.Options{Shards: 2, Sample: keys})))
	if cs := lt.byCall[spanGetBatch]; cs == nil || cs.ops != n || cs.calls > 2 || lt.byCall[spanGet] != nil || tr.locates.Load() != n {
		t.Errorf("sharded store: GetBatch calls %+v, Get %+v, ShardOf %d: not the `processSharded` path", cs, lt.byCall[spanGet], tr.locates.Load())
	}
	if tr.storeOps.Load() != n || lt.malformed != 0 {
		t.Errorf("store ops %d, malformed %d", tr.storeOps.Load(), lt.malformed)
	}
	if _, ok := tr.wrapShards(shard.New(shard.Options{})).(index.Batcher); !ok {
		t.Error("the wrapped sharded store is no longer a Batcher")
	}
	if _, ok := tr.wrapIndex(plain).(index.Batcher); ok {
		t.Error("the wrapped unsharded index became a Batcher")
	}
}

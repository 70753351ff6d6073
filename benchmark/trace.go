package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// spanName says which boundary a span was recorded at. client.batch is a
// root: one round trip, or one direct call. store.call is a call into the
// store (the served index, or the index itself for direct calls) and is
// further split by the call made. vfs.* are the log's file operations.
type spanName uint8

const (
	spanBatch spanName = iota
	spanGet
	spanGetBatch
	spanSet
	spanDel
	spanScan
	spanWrite
	spanSync
)

var spanNames = [...]string{"client.batch", "store.call", "store.call", "store.call", "store.call", "store.call", "vfs.write", "vfs.sync"}
var spanCalls = [...]string{"", "Get", "GetBatch", "Set", "Del", "Scan", "", ""}

// span is one timed interval. Times are nanoseconds since process start.
// Parent is the span that caused it; spans of one request share Req, the
// root's ID. A scan also says when it delivered its first pair and how many
// pairs it delivered.
type span struct {
	id, parent, req uint32
	name            spanName
	ops, pairs      int32
	start, end      int64
	first           int64
}

func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID     uint32 `json:"id"`
		Name   string `json:"name"`
		Call   string `json:"call,omitempty"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
		Parent uint32 `json:"parent"`
		Req    uint32 `json:"req"`
		Ops    int32  `json:"ops,omitempty"`
		First  int64  `json:"first,omitempty"`
		Pairs  int32  `json:"pairs,omitempty"`
	}{s.id, spanNames[s.name], spanCalls[s.name], s.start, s.end, s.parent, s.req, s.ops, s.first, s.pairs})
}

// tracer keeps a traced pass's spans in memory and the counts taken at the
// same boundaries. A nil *tracer is tracing off: its wrap methods return
// the store they were given and its record methods do nothing.
//
// A traced pass has one client, so one request is in flight at a time and
// req names it; per shard at most one store call runs at a time (netkv
// gives each shard one worker), so a file operation's parent is the call
// open on the file's shard.
type tracer struct {
	spans   []span
	n       atomic.Uint32 // IDs handed out; spans[id-1] is span id
	dropped atomic.Int64
	req     atomic.Uint32
	open    []atomic.Uint32 // per shard: the store call in progress

	storeOps atomic.Int64 // key-ops the store was asked for inside requests
	locates  atomic.Int64 // ShardOf calls inside requests

	fs  *timingFS
	wal *wal.Metrics

	recoverS      float64
	snapshotBytes int64
}

func newTracer(capacity, shards int) *tracer {
	t := &tracer{spans: make([]span, capacity), open: make([]atomic.Uint32, shards)}
	t.fs = &timingFS{FS: vfs.OS(), t: t}
	t.wal = wal.NewMetrics(metrics.NewRegistry())
	return t
}

func (t *tracer) alloc() uint32 {
	id := t.n.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	return id
}

func (t *tracer) put(s span) {
	if s.id != 0 {
		t.spans[s.id-1] = s
	}
}

// direct records an in-process call: a root and the store call it is,
// sharing one pair of clock reads, since no layer lies between them.
func (t *tracer) direct(name spanName, t0, t1 int64, ops int, first int64, pairs int) {
	root, call := t.alloc(), t.alloc()
	t.put(span{id: root, req: root, name: spanBatch, ops: int32(ops), start: t0, end: t1})
	t.put(span{id: call, parent: root, req: root, name: name, ops: int32(ops), start: t0, end: t1, first: first, pairs: int32(pairs)})
	t.storeOps.Add(int64(ops))
}

func (t *tracer) beginBatch() uint32 {
	if t == nil {
		return 0
	}
	id := t.alloc()
	t.req.Store(id)
	return id
}

// endBatch closes the root begun at t0. The request is withdrawn before the
// end is read, so that whatever saw it in flight ended inside the root.
func (t *tracer) endBatch(id uint32, t0 int64, ops int) {
	if t == nil {
		return
	}
	t.req.Store(0)
	t.put(span{id: id, req: id, name: spanBatch, ops: int32(ops), start: t0, end: now()})
}

// call times one store call made on behalf of the request in flight; calls
// outside any request (loading, handle set-up) are forwarded untimed.
// shard < 0 means the call cannot reach a file.
func (t *tracer) call(name spanName, ops, shard int, fn func()) {
	req := t.req.Load()
	if req == 0 {
		fn()
		return
	}
	id := t.alloc()
	t0 := now()
	if shard >= 0 {
		t.open[shard].Store(id)
	}
	fn()
	if shard >= 0 {
		t.open[shard].Store(0)
	}
	t1 := now()
	t.put(span{id: id, parent: req, req: req, name: name, ops: int32(ops), start: t0, end: t1})
	t.storeOps.Add(int64(ops))
}

// recovered notes how long opening a prepared directory took and how big
// its snapshot files are.
func (t *tracer) recovered(t0, t1 int64, dir string) {
	if t == nil {
		return
	}
	t.recoverS = float64(t1-t0) / 1e9
	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && strings.HasPrefix(fi.Name(), "snap-") {
			t.snapshotBytes += fi.Size()
		}
		return nil
	})
}

// ---- store wrappers ----
//
// netkv decides how to execute a batch from the interfaces its index
// implements. The wrappers below implement exactly what the wrapped store
// does, so a traced server takes the path an untraced one takes; a test
// holds them to that.

// tracedIndex wraps the unsharded adapter: Index, Ordered, OrderedDesc and
// ReadPinner, and deliberately not Batcher.
type tracedIndex struct {
	index.Index
	t *tracer
}

func (t *tracer) wrapIndex(ix index.Index) index.Index {
	if t == nil {
		return ix
	}
	return &tracedIndex{ix, t}
}

// wrapsAll reports whether the wrapper still covers what the adapter
// offers netkv; if the adapter grows or loses an interface the traced
// server would take another path than the untraced one.
func wrapsAll(ix index.Index) error {
	_, ordered := ix.(index.OrderedDesc)
	rp, pins := ix.(index.ReadPinner)
	_, batches := ix.(index.Batcher)
	if !ordered || !pins || batches {
		return fmt.Errorf("tracedIndex no longer mirrors %T (OrderedDesc %v, ReadPinner %v, Batcher %v)", ix, ordered, pins, batches)
	}
	h := rp.NewReadHandle()
	defer h.Close()
	if _, ok := h.(fullHandle); !ok {
		return fmt.Errorf("read handle %T is no longer a BatchHandle and ScanHandle", h)
	}
	return nil
}

func (x *tracedIndex) Get(k []byte) (v []byte, ok bool) {
	x.t.call(spanGet, 1, -1, func() { v, ok = x.Index.Get(k) })
	return
}
func (x *tracedIndex) Set(k, v []byte) { x.t.call(spanSet, 1, -1, func() { x.Index.Set(k, v) }) }
func (x *tracedIndex) Del(k []byte) (ok bool) {
	x.t.call(spanDel, 1, -1, func() { ok = x.Index.Del(k) })
	return
}
func (x *tracedIndex) Scan(s []byte, fn func(k, v []byte) bool) {
	x.t.call(spanScan, 1, -1, func() { x.Index.(index.Ordered).Scan(s, fn) })
}
func (x *tracedIndex) ScanDesc(s []byte, fn func(k, v []byte) bool) {
	x.t.call(spanScan, 1, -1, func() { x.Index.(index.OrderedDesc).ScanDesc(s, fn) })
}
func (x *tracedIndex) NewReadHandle() index.ReadHandle {
	return &tracedHandle{x.Index.(index.ReadPinner).NewReadHandle().(fullHandle), x.t}
}

// tracedShards wraps the sharded store. Embedding the concrete type keeps
// every optional interface netkv looks for (Batcher, Durable, WriteErr, the
// fencer, WALBytes, Gens, Health); the data calls are timed.
type tracedShards struct {
	*shard.Store
	t *tracer
}

func (t *tracer) wrapShards(st *shard.Store) index.Index {
	if t == nil {
		return st
	}
	return &tracedShards{st, t}
}

func (x *tracedShards) ShardOf(k []byte) int {
	if x.t.req.Load() != 0 {
		x.t.locates.Add(1)
	}
	return x.Store.ShardOf(k)
}
func (x *tracedShards) Get(k []byte) (v []byte, ok bool) {
	x.t.call(spanGet, 1, -1, func() { v, ok = x.Store.Get(k) })
	return
}
func (x *tracedShards) Set(k, v []byte) {
	x.t.call(spanSet, 1, x.Store.ShardOf(k), func() { x.Store.Set(k, v) })
}
func (x *tracedShards) Del(k []byte) (ok bool) {
	x.t.call(spanDel, 1, x.Store.ShardOf(k), func() { ok = x.Store.Del(k) })
	return
}
func (x *tracedShards) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	x.t.call(spanGetBatch, len(keys), -1, func() { vals, found = x.Store.GetBatch(keys) })
	return
}
func (x *tracedShards) NewReadHandle() index.ReadHandle {
	return &tracedHandle{x.Store.NewReader(), x.t}
}

// fullHandle is what both stores' read handles are: netkv looks for
// BatchHandle and ScanHandle on them.
type fullHandle interface {
	index.BatchHandle
	index.ScanHandle
}

type tracedHandle struct {
	h fullHandle
	t *tracer
}

func (x *tracedHandle) Get(k []byte) (v []byte, ok bool) {
	x.t.call(spanGet, 1, -1, func() { v, ok = x.h.Get(k) })
	return
}
func (x *tracedHandle) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	x.t.call(spanGetBatch, len(keys), -1, func() { vals, found = x.h.GetBatch(keys) })
	return
}
func (x *tracedHandle) Scan(s []byte, fn func(k, v []byte) bool) {
	x.t.call(spanScan, 1, -1, func() { x.h.Scan(s, fn) })
}
func (x *tracedHandle) ScanDesc(s []byte, fn func(k, v []byte) bool) {
	x.t.call(spanScan, 1, -1, func() { x.h.ScanDesc(s, fn) })
}
func (x *tracedHandle) Close() { x.h.Close() }

// ---- timing filesystem ----

// timingFS is the OS filesystem with every file Write and Sync counted and
// timed. It is handed to the WAL as wal.Options.FS in traced passes only.
type timingFS struct {
	vfs.FS
	t *tracer

	writes, writeBytes, syncs atomic.Int64
	mu                        sync.Mutex
	syncNs                    []int64 // one entry per Sync; guarded by mu
}

func (f *timingFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	shard := -1
	if i := strings.LastIndex(file.Name(), "shard-"); i >= 0 {
		fmt.Sscanf(file.Name()[i:], "shard-%d", &shard)
	}
	if shard >= len(f.t.open) {
		shard = -1
	}
	return &timingFile{file, f, shard}, nil
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}
func (f *timingFS) Open(name string) (vfs.File, error) { return f.wrap(f.FS.Open(name)) }
func (f *timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

type timingFile struct {
	vfs.File
	fs    *timingFS
	shard int
}

// enclosing returns the request in flight and the store call open on the
// file's shard, for an operation about to start.
func (f *timingFile) enclosing() (req, call uint32) {
	t := f.fs.t
	if f.shard >= 0 {
		call = t.open[f.shard].Load()
	}
	return t.req.Load(), call
}

// record files one operation under the store call that was open on the
// file's shard from its start to its end, else directly under the request
// (the replication sender flushes the log from its own goroutine); one
// that began outside a request, or outlived it, is only counted.
func (f *timingFile) record(name spanName, t0 int64, req, call uint32) {
	t1 := now()
	endReq, endCall := f.enclosing()
	if req == 0 || endReq != req {
		return
	}
	parent := req
	if call != 0 && endCall == call {
		parent = call
	}
	t := f.fs.t
	t.put(span{id: t.alloc(), parent: parent, req: req, name: name, start: t0, end: t1})
}

func (f *timingFile) Write(p []byte) (int, error) {
	req, call := f.enclosing()
	t0 := now()
	n, err := f.File.Write(p)
	f.record(spanWrite, t0, req, call)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	req, call := f.enclosing()
	t0 := now()
	err := f.File.Sync()
	t1 := now()
	f.record(spanSync, t0, req, call)
	f.fs.syncs.Add(1)
	f.fs.mu.Lock()
	f.fs.syncNs = append(f.fs.syncNs, t1-t0)
	f.fs.mu.Unlock()
	return err
}

// ---- reading the spans back ----

// layerTimes splits the roots' total time between the layers. Each instant
// of a root belongs to the deepest span covering it: a file operation, else
// a store call, else the root itself (client, wire and server framing). So
// the three add up to the roots' total, even where two shards' calls
// overlap.
type layerTimes struct {
	roots               int
	total, self         int64 // roots' time, and what no child covers
	store, vfs          int64
	callNs, fileNs      int64 // plain sums of the store calls' and file operations' durations
	malformed           int   // children reaching outside their root
	byCall              map[spanName]*callStat
	scanFirst, scanNext float64 // sums over scan spans, ns
	scanPairs, scans    int64
}

type callStat struct{ calls, ops, ns int64 }

type interval struct{ a, b int64 }

// covered is the length of the union of ivs, which it sorts.
func covered(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for i, iv := range ivs {
		if i == 0 || iv.a > end {
			sum += iv.b - iv.a
			end = iv.b
		} else if iv.b > end {
			sum += iv.b - end
			end = iv.b
		}
	}
	return sum
}

func (t *tracer) recorded() []span {
	n := min(int(t.n.Load()), len(t.spans))
	return t.spans[:n]
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{byCall: map[spanName]*callStat{}}
	spans := t.recorded()
	calls := map[uint32][]interval{} // per root: store calls and file operations
	files := map[uint32][]interval{} // per root: file operations
	for _, s := range spans {
		if s.id == 0 || s.name == spanBatch {
			continue
		}
		root := spans[s.req-1]
		a, b := max(s.start, root.start), min(s.end, root.end)
		if a != s.start || b != s.end {
			lt.malformed++
		}
		if b < a {
			continue
		}
		calls[s.req] = append(calls[s.req], interval{a, b})
		if s.name == spanWrite || s.name == spanSync {
			files[s.req] = append(files[s.req], interval{a, b})
			lt.fileNs += b - a
			continue
		}
		lt.callNs += b - a
		cs := lt.byCall[s.name]
		if cs == nil {
			cs = &callStat{}
			lt.byCall[s.name] = cs
		}
		cs.calls++
		cs.ops += int64(s.ops)
		cs.ns += s.end - s.start
		if s.first != 0 && s.pairs > 1 {
			lt.scans++
			lt.scanFirst += float64(s.first - s.start)
			lt.scanNext += float64(s.end - s.first)
			lt.scanPairs += int64(s.pairs) - 1
		}
	}
	for _, s := range spans {
		if s.id == 0 || s.name != spanBatch {
			continue
		}
		lt.roots++
		lt.total += s.end - s.start
		inCalls, inFiles := covered(calls[s.id]), covered(files[s.id])
		lt.self += s.end - s.start - inCalls
		lt.store += inCalls - inFiles
		lt.vfs += inFiles
	}
	return lt
}

// writeTrace writes the spans as one JSON document.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since process start", t.recorded()})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

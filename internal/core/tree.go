package core

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/qsbr"
)

// Options configures a Wormhole index: its leaf sizes. The index is always
// the full, thread-safe Wormhole with every §3 optimization; the paper's
// Figure 11 ablation and its Wormhole-unsafe variant are kept as source
// patches (docs/ablations), not as options.
type Options struct {
	// LeafCap is the maximum number of keys per leaf before a split is
	// attempted (the paper uses 128). Leaves may exceed it only when no
	// legal split point exists ("fat" leaves, §3.3).
	LeafCap int
	// MergeSize: after a deletion, two adjacent leaves whose combined size
	// is below this are merged. Defaults to 2*LeafCap/3.
	MergeSize int
}

// DefaultOptions returns the leaf sizes of the paper's evaluation: 128-key
// leaves, merged below 2/3 of that.
func DefaultOptions() Options {
	return Options{LeafCap: 128}
}

func (o *Options) normalize() {
	if o.LeafCap <= 1 {
		o.LeafCap = 128
	}
	if o.MergeSize <= 0 {
		o.MergeSize = o.LeafCap * 2 / 3
	}
	if o.MergeSize > o.LeafCap {
		o.MergeSize = o.LeafCap
	}
}

// Wormhole is the core index: a LeafList of sorted leaf nodes plus two
// alternating MetaTrieHT copies. Readers traverse the published table
// lock-free inside a QSBR reader section; structural writers serialize on
// metaMu, patch the spare table, publish it with one atomic store, wait a
// grace period, and replay the patch on the retired table.
type Wormhole struct {
	opt Options
	q   *qsbr.QSBR

	cur    atomic.Pointer[metaTable]
	spare  *metaTable // guarded by metaMu
	metaMu sync.Mutex

	head  *leafNode // leftmost leaf; never removed (merges consume the right node)
	count atomic.Int64

	// batchDepth is the GetBatch pipeline's interleave depth, always
	// defaultBatchDepth outside this package's tests, which vary it (in
	// [1, maxBatchLanes]) on live indexes; hence atomic.
	batchDepth atomic.Int32
	// lockedScans forces every scan chunk through lockedChunk, the
	// contention fallback; set only by this package's tests, before the
	// index is shared.
	lockedScans bool

	// hook, when non-nil, observes every committed mutation (see
	// SetMutationHook); installed before the index is shared.
	hook MutationHook
}

// New creates an empty index.
func New(opt Options) *Wormhole {
	opt.normalize()
	w := &Wormhole{opt: opt}
	w.batchDepth.Store(defaultBatchDepth)
	w.head = newLeafNode(anchor{stored: []byte{}})
	t1 := newMetaTable(64)
	t1.set(&metaNode{key: []byte{}, leaf: w.head})
	t1.version = 1
	w.cur.Store(t1)
	t2 := newMetaTable(64)
	t2.set(&metaNode{key: []byte{}, leaf: w.head})
	w.spare = t2
	w.q = qsbr.NewWithSlots(qsbr.DefaultSlots)
	return w
}

// Count returns the number of keys in the index.
func (w *Wormhole) Count() int64 { return w.count.Load() }

// QSBRReaderLag reports how many grace-period epochs behind the slowest
// active reader section is (0 when no section runs). A lag that stays
// high across observations means a stuck reader is stalling meta-table
// reclamation.
func (w *Wormhole) QSBRReaderLag() uint64 { return w.q.ReaderLag() }

// Get returns the value stored under key.
func (w *Wormhole) Get(key []byte) ([]byte, bool) {
	h := hashKey(key)
	s := w.q.Enter()
	val, ok := w.getOnline(s, h, key)
	w.q.Leave(s)
	return val, ok
}

// seqlockAttempts bounds how many optimistic tries Get makes against
// leaf-writer collisions before falling back to the per-leaf read lock.
const seqlockAttempts = 4

// getOnline performs one lookup inside an already-announced QSBR reader
// section (slot s, used only to Refresh on a stale-table retry).
//
// The fast path is coordination-free: it loads the published table, walks
// it to the target leaf, and performs the whole leaf read — §2.5's
// version/dead validation, the tag-block search, the value-ref load —
// bracketed between two loads of the leaf's seqlock word, with no stores
// to any shared cache line. Every individual load is atomic or covered by
// the arena's reader rule, and every published tag block is immutable and
// self-describing, so no read can tear, fault or race; what CAN be
// observed is a mixed generation (a value ref from just before an
// overwrite, a new base with an old tail, a compaction's refs against the
// old arena, a truncated post-split base under a version check that
// passed just before the split began).
// Every writer that creates such a window bumps the seqlock first, so the
// bracket detects all of them: if seq was even before and unchanged
// after, no mutation overlapped and the result is consistent with a
// stable leaf state inside the bracket.
//
// After seqlockAttempts collisions it falls back to the classic locked
// read path.
func (w *Wormhole) getOnline(s *qsbr.Slot, h uint32, key []byte) ([]byte, bool) {
	for tries := 0; tries < seqlockAttempts; {
		t := w.cur.Load()
		l := w.searchMeta(t, key)
		s1 := l.seq.Load()
		if s1&1 != 0 { // writer mid-mutation
			tries++
			continue
		}
		if l.version.Load() > t.version || l.dead.Load() {
			w.q.Refresh(s)
			continue // stale table: re-resolve, doesn't count as a collision
		}
		var v uint64
		a, r := l.find(h, key)
		if r != noRef {
			v = a.val(r) // find checked the header against hw
		}
		if l.seq.Load() == s1 {
			// The bracket held, so the value ref is current and may be
			// materialized now — never before the validation.
			if r == noRef {
				return nil, false
			}
			return a.value(v), true
		}
		tries++
	}
	for {
		t := w.cur.Load()
		l := w.searchMeta(t, key)
		l.mu.RLock()
		if l.version.Load() > t.version || l.dead.Load() {
			l.mu.RUnlock()
			w.q.Refresh(s)
			continue
		}
		a, r := l.find(h, key)
		var val []byte
		if r != noRef {
			val = a.value(a.val(r))
		}
		l.mu.RUnlock()
		return val, r != noRef
	}
}

// GetBatch looks up every key in one call: vals[i], found[i] answer
// keys[i], exactly as len(keys) sequential Gets would (index.BatchHandle's
// shape, in fresh slices).
func (w *Wormhole) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	vals, found = make([][]byte, len(keys)), make([]bool, len(keys))
	w.GetBatchInto(keys, vals, found, nil)
	return vals, found
}

// GetBatchInto answers keys[i] into vals[i] and found[i] for every i in
// idxs (nil idxs means all of keys). The whole batch shares one QSBR
// reader announcement — the server-side analogue of netkv's request
// batching, used by the sharded store's per-shard groups — and the
// lookups run through the memory-parallel pipeline (batch.go), which
// interleaves the keys' dependent-miss chains instead of walking them one
// at a time.
func (w *Wormhole) GetBatchInto(keys, vals [][]byte, found []bool, idxs []int) {
	s := w.q.Enter()
	w.getBatchOnline(s, keys, vals, found, idxs)
	w.q.Leave(s)
}

// Reader is an amortized read handle: it claims one QSBR slot at creation
// and reuses it for every operation, so a long-lived goroutine (a server
// connection, a benchmark worker) pays the slot acquisition once instead
// of per request, and each Get costs two plain stores to the handle's own
// cache line instead of a shared compare-and-swap. Between operations the
// slot is parked (quiescent), so an idle Reader never stalls writers'
// grace periods. A Reader must not be used concurrently; Close releases
// the slot.
type Reader struct {
	w   *Wormhole
	pin *qsbr.Pin
}

// NewReadHandle implements index.ReadPinner: the handle is a *Reader,
// which is also an index.BatchHandle and an index.ScanHandle.
func (w *Wormhole) NewReadHandle() index.ReadHandle { return w.NewReader() }

// NewReader returns a read handle bound to this index.
func (w *Wormhole) NewReader() *Reader { return &Reader{w: w, pin: w.q.Pin()} }

// Get returns the value stored under key.
func (r *Reader) Get(key []byte) ([]byte, bool) {
	h := hashKey(key)
	s := r.pin.Enter()
	val, ok := r.w.getOnline(s, h, key)
	r.pin.Leave()
	return val, ok
}

// GetBatch looks up every key in one call through the handle's pinned
// slot: vals[i], found[i] answer keys[i], in fresh slices.
func (r *Reader) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	vals, found = make([][]byte, len(keys)), make([]bool, len(keys))
	r.GetBatchInto(keys, vals, found, nil)
	return vals, found
}

// GetBatchInto answers keys[i] into vals[i] and found[i] for every i in
// idxs (nil idxs means all of keys), under a single reader announcement
// on the handle's pinned slot and through the memory-parallel pipeline.
func (r *Reader) GetBatchInto(keys, vals [][]byte, found []bool, idxs []int) {
	s := r.pin.Enter()
	r.w.getBatchOnline(s, keys, vals, found, idxs)
	r.pin.Leave()
}

// Scan visits keys >= start in ascending order until fn returns false,
// through the handle's pinned slot — a long-lived goroutine (a server
// connection) pays no per-scan reader registration. A nil start scans
// from the smallest key; fn runs with no locks held.
func (r *Reader) Scan(start []byte, fn func(key, val []byte) bool) {
	s := r.pin.Enter()
	r.w.scanLoop(s, start, false, fn)
	r.pin.Leave()
}

// ScanDesc visits keys <= start in descending order until fn returns
// false, through the handle's pinned slot. A nil start scans from the
// largest key.
func (r *Reader) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	s := r.pin.Enter()
	r.w.scanLoop(s, start, true, fn)
	r.pin.Leave()
}

// Close releases the handle's reader slot. The Reader must not be used
// afterwards.
func (r *Reader) Close() {
	if r.pin != nil {
		r.pin.Unpin()
		r.pin = nil
	}
}

// Set inserts or replaces key's value. Key and value are copied into the
// index; the caller keeps its buffers.
func (w *Wormhole) Set(key, val []byte) {
	// The hook observed the mutation in commit order (under the leaf
	// lock); any blocking durability wait happens here, with every index
	// lock released, so an fsync never stalls readers or other writers.
	w.Barrier(w.SetNoWait(key, val))
}

// SetNoWait is Set without the durability wait: the write is applied
// (key and value copied, as by Set), visible and handed to the mutation
// hook, and the hook's token is returned for a later Barrier. A caller
// applying several writes may Barrier only the largest token (see
// MutationHook).
func (w *Wormhole) SetNoWait(key, val []byte) (token uint64) {
	h := hashKey(key)
	s := w.q.Enter()
	for {
		t := w.cur.Load()
		l := w.searchMeta(t, key)
		l.mu.Lock()
		if l.version.Load() > t.version || l.dead.Load() {
			l.mu.Unlock()
			w.q.Refresh(s)
			continue
		}
		if _, r := l.find(h, key); r != noRef {
			l.overwrite(r, val)
			token := w.logSet(key, val)
			l.mu.Unlock()
			w.q.Leave(s)
			return token
		}
		if l.size() < w.opt.LeafCap {
			l.insert(h, key, val)
			w.count.Add(1)
			token := w.logSet(key, val)
			l.mu.Unlock()
			w.q.Leave(s)
			return token
		}
		// The leaf is full: go through the structural-writer path. Release
		// the leaf lock and the QSBR slot first — holding a leaf lock while
		// waiting on metaMu would let a blocked reader stall the current
		// metaMu owner's grace period forever.
		l.mu.Unlock()
		w.q.Leave(s)
		return w.splitInsert(h, key, val)
	}
}

// splitInsert inserts (key, val) into a leaf that was observed full,
// splitting the leaf if a legal cut exists. It re-resolves the target
// under metaMu: holding metaMu freezes the published table (tables are
// only replaced by metaMu owners) and all leaf versions, so one search +
// one leaf lock is race-free here.
func (w *Wormhole) splitInsert(h uint32, key, val []byte) uint64 {
	w.metaMu.Lock()
	t := w.cur.Load()
	l := w.searchMeta(t, key)
	l.mu.Lock()
	if _, r := l.find(h, key); r != noRef {
		l.overwrite(r, val)
		token := w.logSet(key, val)
		l.mu.Unlock()
		w.metaMu.Unlock()
		return token
	}
	if l.size() < w.opt.LeafCap {
		l.insert(h, key, val)
		w.count.Add(1)
		token := w.logSet(key, val)
		l.mu.Unlock()
		w.metaMu.Unlock()
		return token
	}
	bufp := getSorted()
	sorted := sortedItems(l, *bufp)
	p := planSplit(l, sorted)
	if p == nil {
		// No legal anchor at any cut point: grow a fat leaf (§3.3).
		putSorted(bufp, sorted)
		l.insert(h, key, val)
		w.count.Add(1)
		token := w.logSet(key, val)
		l.mu.Unlock()
		w.metaMu.Unlock()
		return token
	}

	nv := t.version + 1
	l.version.Store(nv)
	oldRight := l.next.Load()
	newL := executeLeafSplit(l, sorted, p)
	putSorted(bufp, sorted)
	// Insert the pending item into the correct half before publication.
	target := l
	if bytes.Compare(key, newL.anchor.Load().real()) >= 0 {
		target = newL
	}
	target.insert(h, key, val)
	w.count.Add(1)
	token := w.logSet(key, val)

	sp := w.spare
	applySplit(sp, l, newL, oldRight, p)
	sp.version = nv
	w.cur.Store(sp)
	// Release the leaf locks before waiting out the grace period so
	// readers blocked on them can finish and vacate their QSBR slots.
	l.mu.Unlock()
	newL.mu.Unlock()
	w.q.Synchronize()
	applySplit(t, l, newL, oldRight, p)
	w.spare = t
	w.metaMu.Unlock()
	return token
}

// Del removes key, reporting whether it was present. When the leaf drains
// it is opportunistically merged with a neighbor (Algorithm 2's DEL).
func (w *Wormhole) Del(key []byte) bool {
	found, token := w.DelNoWait(key)
	// Only a present key's removal is a mutation (an absent key's token is
	// 0); the hook already observed it in commit order, so only the
	// durability wait remains.
	w.Barrier(token)
	return found
}

// DelNoWait is Del without the durability wait, returning the hook's
// token for a later Barrier (0 when key was absent).
func (w *Wormhole) DelNoWait(key []byte) (found bool, token uint64) {
	h := hashKey(key)
	s := w.q.Enter()
	var shrunk *leafNode
	for {
		t := w.cur.Load()
		l := w.searchMeta(t, key)
		l.mu.Lock()
		if l.version.Load() > t.version || l.dead.Load() {
			l.mu.Unlock()
			w.q.Refresh(s)
			continue
		}
		_, it := l.find(h, key)
		if it == noRef {
			l.mu.Unlock()
			w.q.Leave(s)
			return false, 0
		}
		l.remove(it)
		w.count.Add(-1)
		token = w.logDel(key)
		if l.size() < w.opt.MergeSize/2 {
			shrunk = l
		}
		l.mu.Unlock()
		break
	}
	w.q.Leave(s)
	if shrunk != nil {
		w.tryMerge(shrunk)
	}
	return true, token
}

// tryMerge merges l with a neighbor if their combined size is still below
// MergeSize by the time the locks are held. Merging is best-effort: if the
// world changed since the delete, it simply gives up.
func (w *Wormhole) tryMerge(l *leafNode) {
	w.metaMu.Lock()
	defer w.metaMu.Unlock()
	// dead, prev and next only change under metaMu, so these reads are
	// stable for the duration of the lock.
	if l.dead.Load() {
		return
	}
	if left := l.prev.Load(); left != nil && w.mergePair(left, l) {
		return
	}
	if right := l.next.Load(); right != nil {
		w.mergePair(l, right)
	}
}

// mergePair merges victim into left (its immediate predecessor); caller
// holds metaMu. Returns false if the pair no longer qualifies.
func (w *Wormhole) mergePair(left, victim *leafNode) bool {
	t := w.cur.Load()
	left.mu.Lock()
	victim.mu.Lock()
	if left.size()+victim.size() >= w.opt.MergeSize {
		victim.mu.Unlock()
		left.mu.Unlock()
		return false
	}
	nv := t.version + 1
	victim.version.Store(nv)
	plan := &mergePlan{
		stored: victim.anchor.Load().stored,
		victim: victim,
		left:   left,
		right:  victim.next.Load(),
	}
	mergeLeaves(left, victim)
	sp := w.spare
	applyMerge(sp, plan)
	sp.version = nv
	w.cur.Store(sp)
	victim.mu.Unlock()
	left.mu.Unlock()
	w.q.Synchronize()
	applyMerge(t, plan)
	w.spare = t
	return true
}

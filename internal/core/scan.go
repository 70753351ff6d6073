package core

import (
	"bytes"
	"sync"

	"github.com/repro/wormhole/internal/qsbr"
)

// Range scans (Algorithm 2's RangeSearchAscending, plus the descending
// twin): one meta-table lookup finds the starting leaf, then the scan walks
// the LeafList directly through a resumable cursor.
//
// The fast path is coordination-free, the scan-side twin of getOnline: each
// chunk is copied out of the leaf's published key-sorted view (the tag
// block's sorted index over its item array) interleaved with the short
// inline tail of recent inserts by pre-published merge positions, the
// whole copy bracketed between two loads of the leaf's seqlock word.
// Nothing is locked and nothing is written to shared state. Only after the
// bracket validates are the copied (record, value ref) pairs materialized
// — each value an arena slice, each key the arena's suffix or, behind a
// fence prefix, assembled a block at a time into pooled buffers — and
// handed to the callback, which therefore runs with no locks held and may
// call back into the index. Leaves under persistent
// write pressure (seqlockAttempts collisions) fall back to the same copy
// under the leaf's read lock, which excludes writers but neither blocks
// nor is blocked by other readers.
//
// Concurrent splits and merges are tolerated by three rules:
//
//   - resume strictly beyond the last emitted key, so a leaf reached twice
//     (e.g. re-seek after landing on a merged-away node) emits no
//     duplicates and loses no keys;
//   - an ascending hop pointer captured inside a validated bracket (or
//     under the predecessor's lock) stays valid across a split of the
//     target — the target keeps its lower half and the scan re-reads
//     .next — but a descending hop must verify hopped.next == current and
//     otherwise re-seek, because a split moves the upper half — the keys
//     the descending scan needs next — into a node the stale pointer
//     bypasses;
//   - a descending same-leaf continuation must observe an unchanged leaf
//     version: a split between chunks moves the upper half — keys the
//     cursor still owes — into a right sibling the continuation would
//     skip. (Ascending continuations need no check: the lower half stays,
//     and the moved upper half is reached through .next in order.)

// scanChunk bounds how many pairs are copied out per leaf visit: small
// enough that a short range query does not pay for a whole 128-key leaf,
// large enough that long scans amortize the copy-out bookkeeping.
const scanChunk = 128

// scanEntry is one copied-out pair in pre-materialized form: the record
// ref — whose key suffix is immutable and therefore safe to read even
// after the bracket — plus the value ref, which was loaded inside the bracket and
// may only be turned into a slice once the bracket has validated (or under
// the leaf lock, where it is always current). Both resolve in the chunk's
// arena (cursor.arena). The entry holds no pointer, so the pooled chunk
// buffers are never scanned by the collector.
type scanEntry struct {
	ref uint32
	val uint64
}

// scanScratch is one scan's pooled state: the chunk copy-out buffer, the
// keys handed out, assembled a block at a time into scanKeyBufs buffers in
// turn, and the backing of the cursor's resume bound. Range-heavy workloads
// (Figure 18) would otherwise allocate per scan and spend their time in
// the garbage collector.
type scanScratch struct {
	ents  []scanEntry
	kbuf  [scanKeyBufs][]byte
	keys  [scanKeyBufs][scanKeyBlock][]byte
	bound []byte
	// The initial backing of ents, kbuf and bound, so a fresh scratch is
	// one allocation; a block of keys longer than 32 bytes on average
	// grows its buffer once.
	entRoom   [scanChunk]scanEntry
	kbufRoom  [scanKeyBufs][scanKeyBlock * 32]byte
	boundRoom [64]byte
}

// scanKeyBlock is how many keys a scan assembles at a time, a block ahead
// of handing them out. A key read straight after its own bytes were
// stored cannot be forwarded from the store buffer, so the load waits for
// every older instruction to retire — the caller's cache misses on the
// previous pairs included — and a per-pair assembly serializes them: it
// cost core-e-az1 about 45% more CPU per scan than whole keys in the arena
// did. Assembling the next block while the callbacks take the current one
// lets its stores retire first. A block also bounds the keys assembled
// and not handed out when the callback stops.
const scanKeyBlock = 8

// scanKeyBufs is how many blocks of keys a scan keeps intact: the one
// being handed out, the next one, assembled ahead, and the previous one,
// whose last key the contract keeps valid until the following callback
// returns.
const scanKeyBufs = 3

var scanPool = sync.Pool{
	New: func() any {
		sc := new(scanScratch)
		sc.ents = sc.entRoom[:0]
		for i := range sc.kbuf {
			sc.kbuf[i] = sc.kbufRoom[i][:0]
		}
		sc.bound = sc.boundRoom[:0]
		return sc
	},
}

// assemble returns the whole keys of the records ents name in a (at most
// scanKeyBlock of them), as the b-th block of a scan hands them out: the
// arena's suffixes themselves when the prefix is empty, and otherwise
// prefix and suffix assembled into kbuf[b%scanKeyBufs], where they stay
// intact while the next block is handed out. Each key's capacity is
// clipped to its length.
func (sc *scanScratch) assemble(a *arena, ents []scanEntry, b int) [][]byte {
	i := b % scanKeyBufs
	keys := sc.keys[i][:len(ents)]
	if a.plen == 0 {
		for i, e := range ents {
			keys[i] = a.sfx(e.ref)
		}
		return keys
	}
	var ends [scanKeyBlock]int
	kb := sc.kbuf[i][:0]
	for j, e := range ents {
		kb = a.appendKey(kb, e.ref)
		ends[j] = len(kb)
	}
	sc.kbuf[i] = kb
	start := 0
	for j, end := range ends[:len(ents)] {
		keys[j] = kb[start:end:end]
		start = end
	}
	return keys
}

// release returns sc to the pool, keeping the grown buffers (bound, the
// cursor's) but no arena slice alive.
func (sc *scanScratch) release(bound []byte) {
	sc.bound = bound[:0]
	sc.keys = [scanKeyBufs][scanKeyBlock][]byte{}
	scanPool.Put(sc)
}

// cursor is a resumable scan position, shared by Scan/ScanDesc (which
// drive it to exhaustion inside one reader section) and Iter (which parks
// between chunks on a pinned slot). Instead of paying a meta-table lookup
// per chunk, the cursor retains the leaf the next chunk starts in and
// walks next/prev LeafList pointers; it re-seeks through the meta table
// only when the retained leaf can no longer serve the scan (dead, stale
// version, or a failed descending-hop validation).
type cursor struct {
	w    *Wormhole
	desc bool
	// start is the original seek bound; nil means the smallest key
	// (ascending) or the largest (descending).
	start []byte
	// bound is the last emitted key once started; resume is strictly
	// beyond it. It is the cursor's own copy, in pooled bytes (scanScratch).
	bound   []byte
	started bool
	done    bool
	// arena is the arena the last chunk's entries resolve in.
	arena *arena

	// Retained resume position: leaf is the node the next chunk starts in
	// (nil: re-seek through the meta table). For descending hops, from is
	// the node the cursor left, validated as leaf.next on arrival; for
	// descending same-leaf continuations, seenVer is the leaf version the
	// previous chunk observed.
	leaf     *leafNode
	from     *leafNode
	sameLeaf bool
	seenVer  uint64
}

// reseek drops the retained position; the next chunk resolves its leaf
// through the meta table from the bound.
func (c *cursor) reseek() {
	c.leaf, c.from, c.sameLeaf = nil, nil, false
}

// advance folds one successful chunk into the cursor state. l is the leaf
// the chunk came from, a the arena its entries resolve in, adj its
// next/prev pointer when the leaf was exhausted (captured inside the
// chunk's validation), ver the leaf version observed by the chunk, more
// whether qualifying items remain in l.
func (c *cursor) advance(l *leafNode, a *arena, adj *leafNode, ver uint64, more bool, out []scanEntry) {
	c.arena = a
	if len(out) > 0 {
		c.bound = a.appendKey(c.bound[:0], out[len(out)-1].ref)
		c.started = true
	}
	if more {
		c.leaf, c.from = l, nil
		c.sameLeaf, c.seenVer = true, ver
		return
	}
	c.sameLeaf = false
	c.leaf = adj
	c.from = nil
	if c.desc {
		c.from = l
	}
	if adj == nil {
		c.done = true
	}
}

// boundKey returns the current resume bound and whether it is inclusive
// (only the original seek bound is; after the first emission resume is
// strictly beyond the last key). unbounded reports a descending scan with
// no upper bound (start from the largest key).
func (c *cursor) boundKey() (bound []byte, incl, unbounded bool) {
	if c.started {
		return c.bound, false, false
	}
	return c.start, true, c.start == nil
}

// fastResult classifies one optimistic chunk attempt.
type fastResult int

const (
	fastRetry  fastResult = iota // seqlock collision: try again
	fastReseek                   // leaf cannot serve the scan: re-seek
	fastOK
)

// leafUsable reports whether l can serve the cursor's next chunk, given
// its version ver as loaded inside the caller's bracket or lock: not merged
// away, not newer than the table that routed to it (checkVer), and for a
// descending cursor neither bypassed by a split since the hop pointer was
// captured nor split while a same-leaf continuation paused (its upper
// half — keys the cursor still owes — moved to a right sibling the
// continuation would skip).
func (c *cursor) leafUsable(l *leafNode, tver uint64, checkVer bool, ver uint64) bool {
	if l.dead.Load() || (checkVer && ver > tver) {
		return false
	}
	if c.desc {
		if c.from != nil && l.next.Load() != c.from {
			return false
		}
		if c.sameLeaf && ver != c.seenVer {
			return false
		}
	}
	return true
}

// copyChunk copies one chunk out of l's key-sorted item list into buf and
// returns it with the arena it resolves in, whether qualifying items
// remain in l, and — when none do — the adjacent leaf in scan direction.
// The caller holds l's read lock or brackets the call with l's seqlock.
func (c *cursor) copyChunk(l *leafNode, buf []scanEntry) (a *arena, out []scanEntry, more bool, adj *leafNode) {
	a = l.arena.Load() // before any ref: the reader rule
	ents, ord := l.sortedView()
	bound, incl, unbounded := c.boundKey()
	// After a validated hop every key in l lies strictly beyond the bound
	// (leaf spans are ordered and a real anchor never moves down), so the
	// merge starts at the leaf edge without any boundary search.
	edge := c.leaf != nil && !c.sameLeaf
	if c.desc {
		out, more = mergeDesc(l, a, ents, ord, bound, incl, unbounded || edge, buf)
		if !more {
			adj = l.prev.Load()
		}
	} else {
		out, more = mergeAsc(l, a, ents, ord, bound, incl, edge, buf)
		if !more {
			adj = l.next.Load()
		}
	}
	return a, out, more, adj
}

// tryFastChunk performs one optimistic chunk copy-out from l: the validity
// checks, the boundary search over the published key-sorted view, the
// inline-tail merge, the value-ref loads, and the adjacency pointer all
// sit between two loads of l's seqlock word, so a validated chunk is
// consistent with one stable leaf state. No store to shared memory, no
// lock.
func (c *cursor) tryFastChunk(l *leafNode, tver uint64, checkVer bool, buf []scanEntry) ([]scanEntry, fastResult) {
	s1 := l.seq.Load()
	if s1&1 != 0 {
		return nil, fastRetry // writer mid-mutation
	}
	ver := l.version.Load()
	if !c.leafUsable(l, tver, checkVer, ver) {
		return nil, fastReseek
	}
	a, out, more, adj := c.copyChunk(l, buf)
	if l.seq.Load() != s1 {
		return nil, fastRetry
	}
	c.advance(l, a, adj, ver, more, out)
	return out, fastOK
}

// mergeAsc merge-walks the key-sorted base view and the leaf's inline
// tail in ascending order, appending every pair beyond the bound (>= when
// incl, > otherwise) until the chunk (cap(buf)) fills. more reports
// whether qualifying items remain in this leaf beyond the chunk. The bound
// is a whole key, placed once against the arena's prefix; from there keys
// compare by suffix.
//
// The writer keeps the tail slots (pos, key)-sorted and publishes each
// item's merge position at insert time, so the walk reads the slots
// directly and interleaves the two views comparing integers: a tail entry
// with pos == oi sits between order[oi-1] and order[oi] and is emitted
// first. Key bytes are compared only at the boundary (tail entries whose
// base gap straddles the bound) — and not at all when edge says the walk
// starts at the leaf's edge (a validated hop) — never per emitted pair. A
// ref the reader rule rejects (a mixed generation) is skipped: the writer
// that created it bumped the seqlock, so the enclosing bracket discards
// the chunk anyway.
func mergeAsc(l *leafNode, a *arena, ents []tagEnt, ord keyOrder, bound []byte, incl, edge bool, buf []scanEntry) ([]scanEntry, bool) {
	tl := int(l.tailLen.Load())
	if tl > tagTailMax {
		tl = tagTailMax
	}
	n := ord.len()
	oi, ti := 0, 0
	var sfx []byte
	if !edge {
		var rel int
		sfx, rel = a.cut(bound)
		if rel > 0 {
			return buf, false // every key in the leaf is below the bound
		}
		edge = rel < 0 // every key is above it: start at the leaf's edge
	}
	if !edge {
		oi = lowerBoundIdx(a, ents, ord, sfx, incl)
		for ti < tl && int(l.tailPos[ti].Load()) < oi {
			ti++
		}
		for ti < tl && int(l.tailPos[ti].Load()) == oi {
			k, ok := a.peekSfx(l.tailItem[ti].Load())
			if !ok {
				ti++
				continue
			}
			cmp := bytes.Compare(k, sfx)
			if cmp > 0 || (incl && cmp == 0) {
				break
			}
			ti++
		}
	}
	out := buf
	for {
		// Emit the tail entries due at this position (pos <= oi), then a
		// tight compare-free run of base items below the next tail
		// position — the common case is one long run per chunk. A tail
		// position is clamped to n: racing a fold, the leaf's tail slots
		// can carry positions relative to a NEWER (larger) base than the
		// order view this chunk loaded, and an unclamped pos > n with the
		// base exhausted would consume nothing, advance nothing and never
		// exit — a livelock on a state the seqlock bracket is about to
		// reject anyway. Clamped, the entry is consumed, the walk
		// terminates, and the bracket discards the chunk.
		for ti < tl && len(out) < cap(out) {
			p := int(l.tailPos[ti].Load())
			if p > n {
				p = n
			}
			if p > oi {
				break
			}
			r := l.tailItem[ti].Load()
			ti++
			if v, ok := a.peekVal(r); ok {
				out = append(out, scanEntry{ref: r, val: v})
			}
		}
		if len(out) == cap(out) {
			return out, oi < n || ti < tl
		}
		end := n
		if ti < tl {
			if p := int(l.tailPos[ti].Load()); p < end {
				end = p
			}
		}
		if m := oi + cap(out) - len(out); end > m {
			end = m
		}
		for ; oi < end; oi++ {
			r := ents[ord.at(oi)].ref
			if v, ok := a.peekVal(r); ok {
				out = append(out, scanEntry{ref: r, val: v})
			}
		}
		if len(out) == cap(out) {
			return out, oi < n || ti < tl
		}
		if oi >= n && ti >= tl {
			return out, false
		}
	}
}

// mergeDesc is the descending twin: walk both views downward from the
// bound (<= when incl, < otherwise; no bound at all when unbounded). A
// tail entry with pos == oi+1 sits between order[oi] and order[oi+1], so
// going down it is emitted before order[oi].
func mergeDesc(l *leafNode, a *arena, ents []tagEnt, ord keyOrder, bound []byte, incl, unbounded bool, buf []scanEntry) ([]scanEntry, bool) {
	tl := int(l.tailLen.Load())
	if tl > tagTailMax {
		tl = tagTailMax
	}
	oi := ord.len() - 1
	ti := tl - 1
	var sfx []byte
	if !unbounded {
		var rel int
		sfx, rel = a.cut(bound)
		if rel < 0 {
			return buf, false // every key in the leaf is above the bound
		}
		unbounded = rel > 0 // every key is below it: start at the top
	}
	if !unbounded {
		oi = lowerBoundIdx(a, ents, ord, sfx, !incl) - 1
		for ti >= 0 && int(l.tailPos[ti].Load()) > oi+1 {
			ti--
		}
		for ti >= 0 && int(l.tailPos[ti].Load()) == oi+1 {
			k, ok := a.peekSfx(l.tailItem[ti].Load())
			if !ok {
				ti--
				continue
			}
			cmp := bytes.Compare(k, sfx)
			if cmp < 0 || (incl && cmp == 0) {
				break
			}
			ti--
		}
	}
	out := buf
	for {
		// Emit the tail entries due above this position (pos > oi), then
		// a tight compare-free run of base items down to the next tail
		// position. Each tail position is loaded once and that one value
		// decides both whether the entry is emitted now and where the base
		// run stops (low), so a writer racing the slot cannot make the two
		// disagree: either a tail entry is consumed (ti drops) or low <= oi
		// and the run walks at least order[oi] (oi drops). Every iteration
		// of this loop therefore decrements ti or oi, and the walk ends —
		// the descending twin of mergeAsc's clamp.
		low := 0
		for ti >= 0 && len(out) < cap(out) {
			p := int(l.tailPos[ti].Load())
			if p <= oi {
				// The next tail entry comes after order[p..oi].
				low = p
				break
			}
			r := l.tailItem[ti].Load()
			ti--
			if v, ok := a.peekVal(r); ok {
				out = append(out, scanEntry{ref: r, val: v})
			}
		}
		if len(out) == cap(out) {
			return out, oi >= 0 || ti >= 0
		}
		if m := oi - (cap(out) - len(out)) + 1; low < m {
			low = m
		}
		for ; oi >= low; oi-- {
			r := ents[ord.at(oi)].ref
			if v, ok := a.peekVal(r); ok {
				out = append(out, scanEntry{ref: r, val: v})
			}
		}
		if len(out) == cap(out) {
			return out, oi >= 0 || ti >= 0
		}
		if oi < 0 && ti < 0 {
			return out, false
		}
	}
}

// lockedChunk is the contention fallback (and, when tests set lockedScans,
// the whole path): the same chunk copy as tryFastChunk under l's read lock
// instead of its seqlock bracket, unlocked before anything is emitted.
// ok=false means l cannot serve the scan and the caller must re-seek.
func (c *cursor) lockedChunk(l *leafNode, tver uint64, checkVer bool, buf []scanEntry) (out []scanEntry, ok bool) {
	l.mu.RLock()
	ver := l.version.Load()
	if !c.leafUsable(l, tver, checkVer, ver) {
		l.mu.RUnlock()
		return nil, false
	}
	a, out, more, adj := c.copyChunk(l, buf)
	l.mu.RUnlock()
	c.advance(l, a, adj, ver, more, out)
	return out, true
}

// nextChunk copies out the next batch of pairs into buf (up to cap(buf))
// and advances the cursor. It returns an empty slice exactly when the scan
// is exhausted. The caller must be inside a QSBR reader section on slot s.
func (c *cursor) nextChunk(s *qsbr.Slot, buf []scanEntry) []scanEntry {
	w := c.w
outer:
	for !c.done {
		// Re-announce the current epoch every chunk, not just on re-seeks:
		// the chunk reads only immutable published blocks and GC-held
		// leaves, so nothing from the previous epoch is still needed, and
		// a long scan must not stall writers' grace periods behind the
		// epoch it started in.
		w.q.Refresh(s)
		var (
			l        *leafNode
			tver     uint64
			checkVer bool
		)
		if c.leaf != nil {
			l = c.leaf
		} else {
			t := w.cur.Load()
			switch {
			case c.started:
				l = w.searchMeta(t, c.bound)
			case !c.desc || c.start != nil:
				l = w.searchMeta(t, c.start)
			default:
				l = w.rightmostLeaf(t)
			}
			tver, checkVer = t.version, true
		}
		if !w.lockedScans {
			for tries := 0; tries < seqlockAttempts; tries++ {
				out, res := c.tryFastChunk(l, tver, checkVer, buf)
				switch res {
				case fastOK:
					if len(out) > 0 {
						return out
					}
					continue outer // empty leaf in the path: hop over it
				case fastReseek:
					c.reseek()
					continue outer
				}
			}
		}
		out, ok := c.lockedChunk(l, tver, checkVer, buf)
		if !ok {
			c.reseek()
			continue
		}
		if len(out) > 0 {
			return out
		}
	}
	return buf[:0]
}

// scanLoop drives a cursor chunk by chunk inside an already-announced
// reader section, materializing each validated chunk and emitting it to fn
// with no locks held (fn may call back into the index). A key fn receives
// stays intact until fn's next call returns; values stay intact for good.
func (w *Wormhole) scanLoop(s *qsbr.Slot, start []byte, desc bool, fn func(key, val []byte) bool) {
	sc := scanPool.Get().(*scanScratch)
	c := cursor{w: w, desc: desc, start: start, bound: sc.bound[:0]}
	defer func() { sc.release(c.bound) }()
	b := 0
	for {
		batch := c.nextChunk(s, sc.ents[:0])
		if len(batch) == 0 {
			return
		}
		a := c.arena
		keys := sc.assemble(a, batch[:min(scanKeyBlock, len(batch))], b)
		b++
		for lo := 0; lo < len(batch); lo += scanKeyBlock {
			hi := min(lo+scanKeyBlock, len(batch))
			var next [][]byte
			if hi < len(batch) {
				next = sc.assemble(a, batch[hi:min(hi+scanKeyBlock, len(batch))], b)
				b++
			}
			for i, e := range batch[lo:hi] {
				if !fn(keys[i], a.value(e.val)) {
					return
				}
			}
			keys = next
		}
	}
}

// Scan visits keys >= start in ascending order until fn returns false.
// A nil start scans from the smallest key. A key passed to fn is valid
// until fn returns (callers keeping one copy it); a value stays valid.
func (w *Wormhole) Scan(start []byte, fn func(key, val []byte) bool) {
	s := w.q.Enter()
	defer w.q.Leave(s)
	w.scanLoop(s, start, false, fn)
}

// ScanDesc visits keys <= start in descending order until fn returns false.
// A nil start scans from the largest key.
func (w *Wormhole) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	s := w.q.Enter()
	defer w.q.Leave(s)
	w.scanLoop(s, start, true, fn)
}

// rightmostLeaf returns the last LeafList node: the root item's rightmost
// subtree boundary (O(1), no list walk).
func (w *Wormhole) rightmostLeaf(t *metaTable) *leafNode {
	root := t.root
	if root.isLeafItem() {
		return root.leaf
	}
	return root.rightmost
}

// Iter is a pull-style cursor over the index. It holds no locks between
// Next calls; mutations made while iterating may or may not be observed,
// but every key present for the whole iteration is visited exactly once.
//
// The iterator owns a long-lived pinned QSBR registration, claimed once at
// creation, and resumes each chunk by walking the retained LeafList
// position instead of paying a meta-table lookup — the boundary key is
// never re-fetched or re-compared. Between Next calls the registration is
// parked, so an idle iterator never stalls writers. An Iter must not be
// used concurrently; call Close when abandoning it before exhaustion (an
// iterator that ran dry has already released its registration).
type Iter struct {
	c     cursor
	pin   *qsbr.Pin
	sc    *scanScratch // pooled buffers; returned on Close
	batch []scanEntry
	i     int
	keys  [][]byte // the keys of the block holding batch[i]
	b     int      // blocks assembled
}

// NewIter returns an iterator positioned before the first key >= start
// (nil start means the smallest key), in ascending order.
func (w *Wormhole) NewIter(start []byte) *Iter { return w.newIter(start, false) }

// NewIterDesc returns an iterator positioned before the first key <=
// start (nil start means the largest key), in descending order.
func (w *Wormhole) NewIterDesc(start []byte) *Iter { return w.newIter(start, true) }

func (w *Wormhole) newIter(start []byte, desc bool) *Iter {
	sc := scanPool.Get().(*scanScratch)
	return &Iter{
		c:   cursor{w: w, desc: desc, start: start, bound: sc.bound[:0]},
		pin: w.q.Pin(),
		sc:  sc,
		i:   -1,
	}
}

// Next advances the iterator; it returns false when the keys are exhausted.
func (i *Iter) Next() bool {
	i.i++
	if i.i < len(i.batch) {
		if i.i%scanKeyBlock == 0 {
			i.assemble()
		}
		return true
	}
	if i.c.done {
		// The previous chunk was the last one; release the registration
		// and the pooled buffer now (Close is idempotent).
		i.Close()
		i.i = 0
		return false
	}
	i.batch = i.c.nextChunk(i.pin.Enter(), i.sc.ents[:0])
	i.pin.Leave()
	i.i = 0
	if len(i.batch) == 0 {
		i.Close() // exhausted: release the pinned slot eagerly
		return false
	}
	i.assemble()
	return true
}

// assemble assembles the keys of the block starting at batch[i].
func (i *Iter) assemble() {
	i.keys = i.sc.assemble(i.c.arena, i.batch[i.i:min(i.i+scanKeyBlock, len(i.batch))], i.b)
	i.b++
}

// Key returns the current key; valid after Next reports true, until the
// next call to Next.
func (i *Iter) Key() []byte { return i.keys[i.i%scanKeyBlock] }

// Value returns the current value; valid after Next reports true.
func (i *Iter) Value() []byte { return i.c.arena.value(i.batch[i.i].val) }

// Close releases the iterator's pinned reader registration and recycles
// its chunk buffer; the iterator must not be used afterwards. It is
// idempotent and runs automatically when the iterator is exhausted.
func (i *Iter) Close() {
	if i.pin != nil {
		i.pin.Unpin()
		i.pin = nil
	}
	if i.sc != nil {
		i.sc.release(i.c.bound)
		i.c.bound = nil
		i.sc = nil
		i.batch, i.keys = nil, nil
	}
}

package core

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// tagEnt is one tag-array slot: the item's full hash inline (its low bits
// are the paper's 16-bit tag; we keep all 32 to order the array) plus the
// item's record ref, resolved only on a hash match.
type tagEnt struct {
	hash uint32
	ref  uint32
}

// tagTailMax bounds the leaf's unsorted tag tail; the tail is folded
// into the sorted base on the insert that would exceed it.
const tagTailMax = 15

// The leaf's hash index — the paper's sorted tag array (Figure 7, §3.2)
// — is split across two structures tuned for the lock-free reader:
//
//   - The base is an immutable published block (tagBlock) holding each
//     item's hash and record ref as one 8-byte pair, in (hash, key)
//     order. Direct positioning walks the pairs: the speculative start
//     position and the true position almost always share one cache line,
//     and that line also holds the ref the final match resolves.
//   - The tail is a fixed array *inline in the leaf*, holding up to
//     tagTailMax recent inserts. Inserting stores one hash, one ref, one
//     merge position and the new length — all atomics on leaf-local cache
//     lines, no allocation — and the O(leaf) fold into a fresh base block
//     is paid once per tagTailMax+1 inserts. This is the paper's delayed,
//     batched sorting (Algorithm 3) applied to the tag array.
//
// Both structures may be read without any lock: the block is immutable
// and self-consistent, the tail's individual loads are atomic, and every
// ref is resolved under the arena's reader rule (arena.go). What a racing
// reader can observe is a mixed generation — a fold's new base with the
// old tail, a mid-insert length/slot mismatch, a compaction's new refs
// against the old arena — and every writer that creates such a window
// does so inside a seqlock bracket, so the optimistic reader's sequence
// validation discards exactly those reads.

// tagBlockCap is the entry count up to which a fold and setSorted keep
// their scratch on the stack: the default 128-key leaf plus a few spare
// slots. Larger blocks (fat leaves, a large custom LeafCap) allocate it.
const tagBlockCap = 140

// smallOrderMax is the largest block whose key-order entries are bytes;
// a larger block's are int32.
const smallOrderMax = 256

// tagBlock is the header of one immutable published base, sized for its
// entries: one pointer-free allocation holding this header, then n
// (hash, ref) pairs ordered by (hash, key) — entry i is the record ref
// and its hash, so a hit reads both from one cache line — then the
// key-order array (order entries are bytes up to smallOrderMax entries,
// int32 beyond). Blocks are immutable and every fold, remove, setSorted
// and bulk load builds a fresh one, so a block never has room beyond n.
//
// The published entry count lives in the leaf header (baseN) as well as
// here. A reader computes the address of entry i from the block pointer
// and baseN alone, without first reading the block, which keeps one
// serialized cache miss off every lookup. A lock-free reader can pair a
// block with the baseN of another generation, so every view clamps the
// count to the block's own n and no read leaves the allocation; the
// seqlock bracket discards such a read.
//
// order is the published key-sorted view: order[k] is the entry index of
// the k-th smallest key. Together with the leaf's (pos, key)-sorted inline
// tail it is the leaf's only item list — lock-free and locked scans,
// splits, merges, compactions and the key-sorted search all read it.
type tagBlock struct {
	n    uint32 // entries the block holds
	size uint32 // bytes of its allocation: the size class, header included
}

// tagBlockHdr is the header's size; the entry array starts there.
const tagBlockHdr = unsafe.Sizeof(tagBlock{})

// emptyTagBlock is the zero-entry block shared by all fresh leaves. Its
// storage runs a word past the header, so its empty arrays start inside
// it like every other block's.
var emptyTagBlock = (*tagBlock)(unsafe.Pointer(new([2]uint64)))

// tagBlockBytes is the bytes a block of n entries needs.
func tagBlockBytes(n int) int {
	ord := n
	if n > smallOrderMax {
		ord = 4 * n
	}
	return int(tagBlockHdr) + n*int(unsafe.Sizeof(tagEnt{})) + ord
}

// allocTagBlock allocates a zeroed block for n > 0 entries. Its storage is
// a []uint64, so the allocator neither scans it nor prefixes it with a
// malloc header; slices.Grow rounds the capacity up to the size class,
// which records what the block really takes.
func allocTagBlock(n int) *tagBlock {
	words := (tagBlockBytes(n) + 7) / 8
	buf := slices.Grow([]uint64(nil), words)[:words]
	b := (*tagBlock)(unsafe.Pointer(&buf[0]))
	b.n, b.size = uint32(n), uint32(cap(buf)*8)
	return b
}

// ents returns all of the block's entries.
func (b *tagBlock) ents() []tagEnt {
	return unsafe.Slice((*tagEnt)(unsafe.Add(unsafe.Pointer(b), tagBlockHdr)), b.n)
}

// order returns the block's key-sorted view cut to n entries, at most the
// block's own count.
func (b *tagBlock) order(n int) keyOrder {
	c := int(b.n)
	n = min(n, c)
	p := unsafe.Add(unsafe.Pointer(b), tagBlockHdr+uintptr(c)*unsafe.Sizeof(tagEnt{}))
	if c > smallOrderMax {
		return keyOrder{big: unsafe.Slice((*int32)(p), c)[:n]}
	}
	return keyOrder{small: unsafe.Slice((*uint8)(p), c)[:n]}
}

// keyOrder is a block's key-sorted view: at(k) is the entry index of the
// k-th smallest key. A block of at most smallOrderMax entries keeps its
// indices in bytes, a larger one in int32; exactly one of the two slices
// is in use.
type keyOrder struct {
	small []uint8
	big   []int32
}

func (o keyOrder) len() int { return len(o.small) + len(o.big) }

func (o keyOrder) at(k int) int {
	if o.big != nil {
		return int(o.big[k])
	}
	return int(o.small[k])
}

func (o keyOrder) set(k, i int) {
	if o.big != nil {
		o.big[k] = int32(i)
		return
	}
	o.small[k] = uint8(i)
}

// lowerBoundIdx returns the first position in the key-sorted view whose
// key is >= the bound (incl) or > it (!incl); ord.len() when none
// qualifies. The bound is given as its suffix (arena.cut places a whole
// key). A ref the reader rule rejects (a mixed generation, which the
// caller's bracket discards) compares low. A plain loop instead of
// sort.Search keeps callers closure-free.
func lowerBoundIdx(a *arena, ents []tagEnt, ord keyOrder, sfx []byte, incl bool) int {
	lo, hi := 0, ord.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, ok := a.peekSfx(ents[ord.at(mid)].ref)
		cmp := -1
		if ok {
			cmp = bytes.Compare(k, sfx)
		}
		if cmp < 0 || (!incl && cmp == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// keyPosIn returns the merge position in the key-sorted view of the key
// whose suffix is sfx, with a one-compare fast path for the common
// append-at-end (ascending insert) case. Caller holds mu.
func keyPosIn(a *arena, ents []tagEnt, ord keyOrder, sfx []byte) int {
	n := ord.len()
	if n == 0 || bytes.Compare(a.sfx(ents[ord.at(n-1)].ref), sfx) < 0 {
		return n
	}
	return lowerBoundIdx(a, ents, ord, sfx, true)
}

// view returns the block's entries for the leaf's published entry count
// n (authoritative while the caller's seqlock bracket holds), clamped to
// the block's own count.
func (b *tagBlock) view(n int) []tagEnt {
	return b.ents()[:min(n, int(b.n))]
}

// sortedView returns the block's key-sorted view for the leaf's published
// entry count n, and the entry array it indexes. The entries are the
// block's whole array, not cut to n, because a lock-free reader can pair
// the block with an n from another generation — and every index the block
// holds is below its own count, which n does not bound. The view itself
// is cut to the smaller of the two counts, so either way every read stays
// inside the block; the seqlock bracket discards the mixed read. Under mu,
// n is exact.
func (b *tagBlock) sortedView(n int) ([]tagEnt, keyOrder) {
	return b.ents(), b.order(n)
}

// touch loads the entry at h's speculative position among the leaf's
// published count n (tagSpec) and returns its hash, 0 when n names no
// entry of this block: the batched read's block round, which brings the
// entry's line in ahead of the tag search. The address depends only on
// the block pointer and n; the clamp against the block's own count is a
// branch, so the load does not wait for the header.
func (b *tagBlock) touch(h uint32, n int) uint32 {
	if n <= 0 {
		return 0
	}
	ents := b.view(n)
	if i := tagSpec(h, n); i < len(ents) {
		return ents[i].hash
	}
	return 0
}

// tagsView is a point-in-time view of a leaf's hash index, materialized
// as entries for the cold paths (invariants, tests); the hot lookup path
// reads the structures directly (find).
type tagsView struct {
	base, tail []tagEnt
}

// size returns the number of items the view covers.
func (v tagsView) size() int { return len(v.base) + len(v.tail) }

// leafNode is one LeafList node (Figure 7).
//
// arena holds the leaf's records (arena.go). base, baseN, tailLen and the
// tail slots are the leaf's one item list: the hash index lock-free
// readers search and, through the base's order view merged with the tail
// by position, the key-sorted list every scan, split, merge and
// compaction walks (see the tagBlock comment; sortedItems).
//
// seq is the leaf's seqlock word: even when the leaf is stable, odd while
// a writer is mutating the item set, overwriting a value or moving the
// arena.
// An optimistic reader snapshots seq, reads, and revalidates; on a
// collision it retries and eventually falls back to the mu.RLock path.
// Immutable snapshot publication and the reader rule already rule out
// torn reads — the seqlock's jobs are certifying the value refs and the
// mixed generations, detecting an overlapping writer early, and bounding
// optimistic spinning under write pressure.
type leafNode struct {
	// The fields an optimistic reader touches — seq, version, dead, base,
	// tailLen, arena, anchor — lead the struct so one cache line serves
	// the whole leaf-header read; mu and the writer-side bookkeeping
	// follow.
	seq atomic.Uint64
	// version is the "expected version" of §2.5: set to (current table
	// version + 1) while the leaf is locked for a split/merge. A reader
	// that reached this leaf through an older table observes
	// version > tableVersion and restarts.
	version atomic.Uint64
	base    atomic.Pointer[tagBlock]
	baseN   atomic.Int32 // entry count of base (see tagBlock)
	tailLen atomic.Int32
	// arena is stored last whenever it changes (setSorted), after the
	// block and tail that refer into it; readers load it first.
	arena  atomic.Pointer[arena]
	anchor atomic.Pointer[anchor]
	dead   atomic.Bool // set when the leaf is merged away (victim)

	mu sync.RWMutex

	tailHash [tagTailMax]atomic.Uint32
	tailItem [tagTailMax]atomic.Uint32 // record refs
	// tailPos[i] is tailItem[i]'s merge position in the published
	// key-sorted view: the index in the view before which the item sorts
	// (the count of base keys below it). The writer computes it
	// once per insert — one binary search on a path that already walks
	// the leaf — and keeps the tail slots (pos, key)-sorted, so scans
	// merge the tail into the sorted view straight from the slots,
	// comparing integers instead of keys and sorting nothing at read
	// time. Remove keeps positions consistent: those above a removed
	// base item's slot shift down by one (a monotone adjustment, so the
	// slot order survives).
	tailPos [tagTailMax]atomic.Int32

	// pendingBlock stages a base block under construction (see
	// newTagBlockInto); guarded by mu.
	pendingBlock *tagBlock

	prev, next atomic.Pointer[leafNode]
}

func newLeafNode(a anchor) *leafNode {
	l := &leafNode{}
	l.base.Store(emptyTagBlock)
	l.arena.Store(emptyArena)
	l.anchor.Store(&a)
	return l
}

// sortedView returns the key-sorted view of l's base block (see
// tagBlock.sortedView).
func (l *leafNode) sortedView() ([]tagEnt, keyOrder) {
	return l.base.Load().sortedView(int(l.baseN.Load()))
}

// tags returns an entry view of the current hash index (cold paths; the
// lookup path is find). Callers needing a consistent view hold mu.
func (l *leafNode) tags() tagsView {
	v := tagsView{}
	if ents := l.base.Load().view(int(l.baseN.Load())); len(ents) > 0 {
		v.base = slices.Clone(ents)
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl && i < tagTailMax; i++ {
		v.tail = append(v.tail, tagEnt{hash: l.tailHash[i].Load(), ref: l.tailItem[i].Load()})
	}
	return v
}

// find locates (h, key) in the hash index (§3.2's sort-by-tag leaf):
// positioned search over the base block's (hash, ref) entries (direct
// speculative positioning), then — on a miss only — a linear scan of the
// short inline tail. It returns the arena the ref resolves in and the ref
// (noRef on a miss). Safe without any lock; optimistic callers bracket it
// with the seqlock (see the tagBlock comment and the reader rule for why
// no read here can fault or race). It runs the search's steps in sequence
// — tagsOf, tagStart, tagPos, matchTags — which the batched read pipeline
// runs one round at a time across its lanes.
func (l *leafNode) find(h uint32, key []byte) (*arena, uint32) {
	a, b, n := l.tagsOf()
	ents := b.view(n)
	i, ok := tagStart(ents, h, n)
	if !ok {
		return a, noRef // a mixed generation: the caller's bracket fails
	}
	return a, l.matchTags(a, ents, tagPos(ents, h, i), h, key)
}

// tagStart returns where tagPos starts its walk over ents, the block's
// view for the leaf's published count n: h's speculative position. The
// position comes from n, not from the block, so the first entry load
// waits for no load of the block header. It reports false when n names a
// position past the block, which only a mixed generation does (the
// caller's seqlock bracket then fails).
func tagStart(ents []tagEnt, h uint32, n int) (int, bool) {
	if n <= 0 {
		return 0, true
	}
	i := tagSpec(h, n)
	return i, i < len(ents)
}

// tagsOf loads l's arena, then its base block and entry count: the reader
// rule's order, so no ref the block holds is older than the arena.
func (l *leafNode) tagsOf() (*arena, *tagBlock, int) {
	a := l.arena.Load()
	return a, l.base.Load(), int(l.baseN.Load())
}

// matchTags finishes a search that tagPos placed at i: h's run in the base
// block, then — on a miss only — the inline tail. It returns the ref of
// key's record, noRef on a miss. A hash match is confirmed against the
// whole key, prefix included (arena.holds).
func (l *leafNode) matchTags(a *arena, ents []tagEnt, i int, h uint32, key []byte) uint32 {
	for ; i < len(ents) && ents[i].hash == h; i++ {
		if a.holds(ents[i].ref, key) {
			return ents[i].ref
		}
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl && i < tagTailMax; i++ {
		if l.tailHash[i].Load() == h {
			if r := l.tailItem[i].Load(); a.holds(r, key) {
				return r
			}
		}
	}
	return noRef
}

// beginMutate/endMutate bracket every item-set mutation, every value
// overwrite and every arena move with the seqlock (caller holds mu).
func (l *leafNode) beginMutate() { l.seq.Add(1) }
func (l *leafNode) endMutate()   { l.seq.Add(1) }

// size returns the leaf's item count (exact under mu).
func (l *leafNode) size() int { return int(l.baseN.Load() + l.tailLen.Load()) }

// tagSpec returns h's speculative position among n sorted hashes,
// hash*n/2^32: with a uniform hash it lands within a step or two of h's
// run (§3.2's direct speculative positioning), and on the dense 8-byte
// entries the speculation and the true position almost always share a
// cache line.
func tagSpec(h uint32, n int) int { return int(uint64(h) * uint64(n) >> 32) }

// tagPos returns the first index in the hash-sorted entries a whose hash
// is >= h (== len(a) when every hash is smaller), walking there from i,
// h's speculative position (tagSpec).
func tagPos(a []tagEnt, h uint32, i int) int {
	for i > 0 && h <= a[i-1].hash {
		i--
	}
	for i < len(a) && h > a[i].hash {
		i++
	}
	return i
}

// reserve makes room for n more bytes in l's arena and returns ref's
// address in the arena that then holds it. Caller holds mu, inside a
// seqlock bracket. When the bytes do not fit, l moves to a fresh arena:
//
//   - with little garbage (at most 1/(2*arenaHeadroom) of the live
//     bytes) the arena grows: its written bytes are copied verbatim into
//     one with room for n plus the headroom, so every ref stays valid and
//     the block and the tail stand;
//   - otherwise the leaf is compacted: its live records are copied in key
//     order (so scans walk the new arena sequentially) into one with room
//     for n plus the compaction headroom, and published as a fresh base
//     block with an empty tail.
//
// An arena's garbage is thus at most its compaction headroom, plus what
// deletes left since the last move.
func (l *leafNode) reserve(n int, ref uint32) uint32 {
	a := l.arena.Load()
	if a.room(n) {
		return ref
	}
	if a.garbage()*2*arenaHeadroom <= a.live {
		l.arena.Store(a.grow(n))
		return ref
	}
	bufp := getSorted()
	refs := sortedItems(l, *bufp)
	at := slices.Index(refs, ref)
	na := newArena(a.prefix(), a.live+n+a.live/compactHeadroom)
	na.copyIn(a, refs)
	l.setSorted(na, refs)
	if at >= 0 {
		ref = refs[at]
	}
	putSorted(bufp, refs)
	return ref
}

// overwrite appends val as ref's new value; caller holds mu.
func (l *leafNode) overwrite(ref uint32, val []byte) {
	l.beginMutate()
	ref = l.reserve(align8(len(val)), ref)
	l.arena.Load().setValue(ref, val)
	l.endMutate()
}

// insert adds a new item; the caller holds mu and has verified the key is
// absent and within l's fences. The record is appended to the arena
// (compacting first when it does not fit). The common case then appends
// to the inline tail — a few atomic stores, no allocation — and the tail
// is folded into a fresh base block on the insert that would exceed
// tagTailMax. Keys are compared by suffix: every one shares the prefix.
func (l *leafNode) insert(h uint32, key, val []byte) {
	sfx, rel := l.arena.Load().cut(key)
	if rel != 0 {
		panic("wormhole: insert outside the leaf's fences")
	}
	l.beginMutate()
	l.reserve(recSize(len(sfx), len(val)), noRef)
	a := l.arena.Load()
	it := a.put(h, sfx, val)
	tl := int(l.tailLen.Load())
	if tl < tagTailMax {
		ents, ord := l.sortedView()
		pos := int32(keyPosIn(a, ents, ord, sfx))
		// Keep the inline tail (pos, key)-sorted: find the insertion
		// slot, shift the greater suffix up one, store the new item. The
		// shift's transient duplicates are inside this bracket, so
		// optimistic readers discard them; scans then merge the tail by
		// position straight from the slots, sorting nothing at read time.
		s := tl
		for s > 0 {
			p := l.tailPos[s-1].Load()
			if p < pos || (p == pos && bytes.Compare(a.sfx(l.tailItem[s-1].Load()), sfx) < 0) {
				break
			}
			s--
		}
		for i := tl; i > s; i-- {
			l.tailHash[i].Store(l.tailHash[i-1].Load())
			l.tailItem[i].Store(l.tailItem[i-1].Load())
			l.tailPos[i].Store(l.tailPos[i-1].Load())
		}
		l.tailHash[s].Store(h)
		l.tailItem[s].Store(it)
		l.tailPos[s].Store(pos)
		l.tailLen.Store(int32(tl + 1))
	} else {
		// Fold: merge the tail into a fresh base block — O(size) copies,
		// no full re-sort, no intermediate entry array. Two walks share
		// the work: the (hash, key) merge fills the lookup arrays and
		// records every element's position in the new ref array; the
		// key-order walk then rebuilds the index view by merging the old
		// view with the (pos, key)-sorted tail slots through those
		// recorded positions — comparing integers, not keys. The only key
		// comparisons are the new item's own placement (its merge
		// position plus its slot among the sorted tail) and hash ties in
		// the small tail sort.
		ob := l.base.Load()
		bn := int(l.baseN.Load())
		old := ob.view(bn)
		oo := ob.order(bn)

		// The new item joins the (pos, key)-sorted tail in a local copy.
		newPos := int32(keyPosIn(a, old, oo, sfx))
		sl := tl
		for sl > 0 {
			p := l.tailPos[sl-1].Load()
			if p < newPos || (p == newPos && bytes.Compare(a.sfx(l.tailItem[sl-1].Load()), sfx) < 0) {
				break
			}
			sl--
		}
		var titems [tagTailMax + 1]uint32
		var thash [tagTailMax + 1]uint32
		var tpos [tagTailMax + 1]int32
		for i := 0; i < sl; i++ {
			titems[i], thash[i], tpos[i] = l.tailItem[i].Load(), l.tailHash[i].Load(), l.tailPos[i].Load()
		}
		titems[sl], thash[sl], tpos[sl] = it, h, newPos
		for i := sl; i < tl; i++ {
			titems[i+1], thash[i+1], tpos[i+1] = l.tailItem[i].Load(), l.tailHash[i].Load(), l.tailPos[i].Load()
		}
		m := tl + 1

		// hIdx: tail slots in (hash, key) order for the lookup-array merge.
		var hIdx [tagTailMax + 1]int32
		for i := 0; i < m; i++ {
			hIdx[i] = int32(i)
		}
		hs := hIdx[:m]
		for i := 1; i < m; i++ {
			for j := i; j > 0; j-- {
				x, y := hs[j], hs[j-1]
				if thash[x] > thash[y] || (thash[x] == thash[y] &&
					bytes.Compare(a.sfx(titems[x]), a.sfx(titems[y])) >= 0) {
					break
				}
				hs[j], hs[j-1] = hs[j-1], hs[j]
			}
		}

		n := len(old) + m
		ne, no := newTagBlockInto(l, n)
		var onBuf [tagBlockCap]int32
		oldToNew := onBuf[:]
		if len(old) > tagBlockCap {
			oldToNew = make([]int32, len(old)) // fat leaf: rare
		}
		oldToNew = oldToNew[:len(old)]
		var tailToNew [tagTailMax + 1]int32
		o := 0
		bi := 0
		ti := 0
		for bi < len(old) && ti < m {
			j := hs[ti]
			if e := old[bi]; e.hash < thash[j] || (e.hash == thash[j] &&
				bytes.Compare(a.sfx(e.ref), a.sfx(titems[j])) < 0) {
				ne[o] = e
				oldToNew[bi] = int32(o)
				bi++
			} else {
				ne[o] = tagEnt{hash: thash[j], ref: titems[j]}
				tailToNew[j] = int32(o)
				ti++
			}
			o++
		}
		for ; bi < len(old); bi++ {
			ne[o] = old[bi]
			oldToNew[bi] = int32(o)
			o++
		}
		for ; ti < m; ti++ {
			j := hs[ti]
			ne[o] = tagEnt{hash: thash[j], ref: titems[j]}
			tailToNew[j] = int32(o)
			o++
		}

		// Key-order walk: old view interleaved with the pos-sorted tail.
		o = 0
		tj := 0
		for x := 0; x < oo.len(); x++ {
			for tj < m && int(tpos[tj]) == x {
				no.set(o, int(tailToNew[tj]))
				o++
				tj++
			}
			no.set(o, int(oldToNew[oo.at(x)]))
			o++
		}
		for ; tj < m; tj++ {
			no.set(o, int(tailToNew[tj]))
			o++
		}
		l.publishTagBlock(n)
	}
	l.endMutate()
}

// pendingTagBlock passes the block under construction from
// newTagBlockInto to publishTagBlock (single writer; caller holds mu).
//
// newTagBlockInto allocates a block of exactly n entries (the shared empty
// block when n is 0) and returns its writable arrays; publishTagBlock
// stores it as the new base and empties the tail.
func newTagBlockInto(l *leafNode, n int) ([]tagEnt, keyOrder) {
	if n == 0 {
		l.pendingBlock = emptyTagBlock
		return nil, keyOrder{}
	}
	b := allocTagBlock(n)
	l.pendingBlock = b
	return b.ents(), b.order(n)
}

func (l *leafNode) publishTagBlock(n int) {
	l.base.Store(l.pendingBlock)
	l.pendingBlock = nil
	l.baseN.Store(int32(n))
	l.tailLen.Store(0)
}

// remove deletes the item (previously returned by find); caller holds mu.
// Its record stays in the arena, as garbage, for any optimistic reader
// still holding its ref, until the next compaction drops it.
func (l *leafNode) remove(it uint32) {
	l.beginMutate()
	l.arena.Load().drop(it)
	if ti := l.tailIndexOf(it); ti >= 0 {
		// Shift the greater suffix down one, preserving the tail's
		// (pos, key) order.
		last := int(l.tailLen.Load()) - 1
		for i := ti; i < last; i++ {
			l.tailHash[i].Store(l.tailHash[i+1].Load())
			l.tailItem[i].Store(l.tailItem[i+1].Load())
			l.tailPos[i].Store(l.tailPos[i+1].Load())
		}
		l.tailLen.Store(int32(last))
	} else {
		// The item is in the base: publish a copy without it (both the
		// lookup arrays and the key-sorted index view, whose indices above
		// the removed item's array slot shift down by one).
		ob := l.base.Load()
		bn := int(l.baseN.Load())
		old := ob.view(bn)
		oo := ob.order(bn)
		ne, no := newTagBlockInto(l, len(old)-1)
		o := 0
		ri := len(old) // removed item's index in the old entries
		for i, e := range old {
			if e.ref != it {
				ne[o] = e
				o++
			} else {
				ri = i
			}
		}
		j := 0
		rp := oo.len() // removed item's slot in the old key-sorted view
		for x := 0; x < oo.len(); x++ {
			ix := oo.at(x)
			if ix == ri {
				rp = x
				continue
			}
			if ix > ri {
				ix--
			}
			no.set(j, ix)
			j++
		}
		tl := l.tailLen.Load() // publishTagBlock clears the tail; keep it
		l.publishTagBlock(o)
		l.tailLen.Store(tl)
		// Tail merge positions above the removed key slot shift down; a
		// monotone adjustment, so the slots' (pos, key) order survives.
		for i := 0; i < int(tl); i++ {
			if p := l.tailPos[i].Load(); p > int32(rp) {
				l.tailPos[i].Store(p - 1)
			}
		}
	}
	l.endMutate()
}

// tailIndexOf returns it's slot in the inline tail, or -1.
func (l *leafNode) tailIndexOf(it uint32) int {
	tl := int(l.tailLen.Load())
	for i := 0; i < tl; i++ {
		if l.tailItem[i].Load() == it {
			return i
		}
	}
	return -1
}

// sortedScratch recycles the key-sorted ref buffers that splits, merges,
// compactions and bulk loads build with sortedItems. A buffer never
// escapes its lock-holding caller, so pooling keeps those paths free of
// per-call scratch allocations.
var sortedScratch = sync.Pool{
	New: func() any {
		b := make([]uint32, 0, tagBlockCap)
		return &b
	},
}

func getSorted() *[]uint32 { return sortedScratch.Get().(*[]uint32) }

func putSorted(bufp *[]uint32, items []uint32) {
	*bufp = items[:0]
	sortedScratch.Put(bufp)
}

// sortedItems appends l's record refs to dst in key order: the base
// block's order view merged with the (pos, key)-sorted inline tail by
// merge position, comparing no keys — the walk mergeAsc does for scans.
// Caller holds mu.
func sortedItems(l *leafNode, dst []uint32) []uint32 {
	ents, ord := l.sortedView()
	tl := int(l.tailLen.Load())
	ti := 0
	for x := 0; x < ord.len(); x++ {
		for ; ti < tl && int(l.tailPos[ti].Load()) <= x; ti++ {
			dst = append(dst, l.tailItem[ti].Load())
		}
		dst = append(dst, ents[ord.at(x)].ref)
	}
	for ; ti < tl; ti++ {
		dst = append(dst, l.tailItem[ti].Load())
	}
	return dst
}

// setSorted publishes key-sorted records of arena a as l's whole item
// list — a fresh base block, an empty tail, and then a as l's arena —
// after a compaction, a split, a merge or a bulk load. The previous block
// and arena are left intact for readers still holding them. Caller holds
// mu.
//
// The input's key order makes an item's index its key rank, so the
// (hash, key) order is a plain sort of packed hash<<32|rank integers and
// the order view falls out of it: no key is compared.
func (l *leafNode) setSorted(a *arena, items []uint32) {
	var buf [tagBlockCap]uint64
	ranks := buf[:0]
	if len(items) > tagBlockCap {
		ranks = make([]uint64, 0, len(items))
	}
	for i, it := range items {
		ranks = append(ranks, uint64(a.hash(it))<<32|uint64(i))
	}
	slices.Sort(ranks)
	ne, no := newTagBlockInto(l, len(items))
	for i, r := range ranks {
		k := uint32(r)
		ne[i] = tagEnt{hash: uint32(r >> 32), ref: items[k]}
		no.set(int(k), i)
	}
	l.publishTagBlock(len(items))
	l.arena.Store(a)
}

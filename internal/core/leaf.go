package core

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// kv is one key-value item. hash is the CRC32-C of the key, computed once
// at insertion; its low 16 bits play the role of the paper's leaf tag
// (§3.2). Key and value buffers are owned by the index once inserted and
// must not be mutated by the caller.
//
// The key is held as a raw (kptr, klen) pair rather than a slice header:
// the capacity word is never needed, and dropping it packs a kv into 32
// bytes, two per cache line. keyBytes rebuilds the slice.
//
// hash, klen and kptr are immutable after construction. The value is
// stored as an atomic (pointer, length) pair so a lock-free reader racing
// an overwrite reads both halves without a data race; the pair itself can
// still be torn (old pointer, new length), which is exactly what the
// leaf's seqlock detects — writers bump it around setValue, and an
// optimistic reader discards any value whose enclosing read saw the
// sequence move. Lock-holding readers can't race writers at all.
//
// A kv must never be copied by value (its address is published in tag
// arrays); all code handles *kv. Storage comes from the owning leaf's
// slab (newKV).
type kv struct {
	hash uint32
	klen uint32
	kptr *byte
	vptr atomic.Pointer[byte]
	vlen atomic.Int64
}

// keyBytes returns the item's key. A nil key reads back nil and an empty
// non-nil key reads back empty and non-nil, as stored.
func (it *kv) keyBytes() []byte { return unsafe.Slice(it.kptr, it.klen) }

// setKey stores key in the item (construction only). Keys of 4 GiB or
// more do not fit the 32-bit length and are rejected.
func (it *kv) setKey(key []byte) {
	if uint64(len(key)) > math.MaxUint32 {
		panic("wormhole: key longer than 4 GiB")
	}
	it.kptr = unsafe.SliceData(key)
	it.klen = uint32(len(key))
}

// value returns the current value slice. A nil stored value reads back
// nil; an empty one may read back nil as well (the pointer of an empty
// slice is unspecified). Only lock-holding readers may call it: it
// materializes the slice from the (vptr, vlen) pair, which is only
// consistent under the leaf lock. Optimistic readers use valueParts +
// valueSlice with a seqlock validation in between — materializing a torn
// pair, even without dereferencing it, would fabricate a slice straddling
// allocations.
func (it *kv) value() []byte {
	p, n := it.valueParts()
	return valueSlice(p, n)
}

// valueParts loads the raw value pair; each load is atomic but the pair
// may be torn unless the caller holds the leaf lock or validates the
// seqlock afterwards.
func (it *kv) valueParts() (*byte, int64) {
	return it.vptr.Load(), it.vlen.Load()
}

// valueSlice materializes a validated (pointer, length) pair.
func valueSlice(p *byte, n int64) []byte {
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, n)
}

// setValue publishes v as the new value. Concurrent-path callers must
// bump the leaf seqlock around the call (see kv's comment); the two
// stores are individually atomic but only the seqlock makes the pair
// observable as a unit.
func (it *kv) setValue(v []byte) {
	it.vlen.Store(int64(len(v)))
	it.vptr.Store(unsafe.SliceData(v))
}

// tagEnt is one tag-array slot: the item's full hash inline (its low bits
// are the paper's 16-bit tag; we keep all 32 to order the array) plus the
// item pointer, dereferenced only on a hash match.
type tagEnt struct {
	hash uint32
	it   *kv
}

// tagTailMax bounds the leaf's unsorted tag tail; the tail is folded
// into the sorted base on the insert that would exceed it.
const tagTailMax = 15

// The leaf's hash index — the paper's sorted tag array (Figure 7, §3.2)
// — is split across two structures tuned for the lock-free reader:
//
//   - The base is an immutable published block (tagBlock) holding the
//     hashes and the item pointers as two parallel arrays in (hash, key)
//     order. The dense []uint32 hash array is what direct positioning
//     walks: 4 bytes per item, so the speculative start position and the
//     true position almost always share one cache line, where an
//     interleaved (hash, pointer) layout pays a miss every 4 steps. The
//     item pointer array is touched exactly once, on the final match.
//   - The tail is a fixed array *inline in the leaf*, holding up to
//     tagTailMax recent inserts in arrival order. Inserting stores one
//     hash, one pointer, and the new length — all atomics on leaf-local
//     cache lines, no allocation, no copying — and the O(leaf) fold into
//     a fresh base block is paid once per tagTailMax+1 inserts. This is
//     the paper's delayed, batched sorting (Algorithm 3) applied to the
//     tag array.
//
// Both structures may be read without any lock: the block is immutable
// and self-consistent, and the tail's individual loads are atomic (item
// pointers are nil-checked before dereferencing, and a kv reachable from
// a stale slot is still a live kv). What a racing reader can observe is a
// mixed generation — a fold's new base with the old tail, a mid-insert
// length/slot mismatch — and every writer that creates such a window
// does so inside a seqlock bracket, so the optimistic reader's sequence
// validation discards exactly those reads.

// tagBlockCap sizes the block's inline arrays: the default 128-key leaf
// plus a full tail. The block is then 2,296 bytes, and with the 8-byte
// header the allocator puts before every pointerful object over 512 bytes
// it fills the 2,304-byte size class exactly (one entry more would land
// in the 2,688-byte class). Leaves that outgrow it (fat leaves, large
// custom LeafCap) spill to the slice-based big form.
const tagBlockCap = 128 + tagTailMax

// tagBlock is one immutable published base: hashes[i] == items[i].hash,
// ordered by (hash, key). The arrays are inline and fixed-size, and the
// entry count lives in the leaf header (baseN), not here — so a reader
// computes the address of hashes[i] from the block pointer alone, without
// first reading the block. That removes one serialized cache miss from
// every lookup (block pointer → slice header → array data becomes block
// pointer → array data), and it makes mixed-generation races memory-safe
// by construction: any index the walk can produce stays inside the fixed
// arrays, where a stale slot holds either zero or a still-live item — and
// the seqlock bracket rejects such reads anyway.
//
// order is the published key-sorted view: order[k] is the items index of
// the k-th smallest key. Together with the leaf's (pos, key)-sorted inline
// tail it is the leaf's only item list — lock-free and locked scans,
// splits, merges and the key-sorted search all read it. Indices, not a
// second pointer array — the array stays out of the garbage collector's
// pointer scans and costs half the bytes, which matters because a block
// is reallocated on every fold, so its size is a write-path cost. The
// lookup side keeps its direct hashes[i]/items[i] layout (one less
// dependent load on the Get path); scans pay the one-hop
// items[order[k]] indirection per emitted pair, which long chunks
// pipeline well. The 4-byte arrays trail the pointer array so they pack
// without padding.
type tagBlock struct {
	big    *tagBlockBig // non-nil iff the entries exceed tagBlockCap
	items  [tagBlockCap]*kv
	hashes [tagBlockCap]uint32
	order  [tagBlockCap]int32
}

// tagBlockBig is the overflow form for leaves beyond tagBlockCap items.
type tagBlockBig struct {
	hashes []uint32
	items  []*kv
	order  []int32
}

// emptyTagBlock is the zero-entry block shared by all fresh leaves.
var emptyTagBlock = &tagBlock{}

// lowerBoundIdx returns the first position in the key-sorted index view
// whose key is >= bound (incl) or > bound (!incl); len(idx) when none
// qualifies. A plain loop instead of sort.Search keeps callers
// closure-free.
func lowerBoundIdx(items []*kv, idx []int32, bound []byte, incl bool) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		cmp := bytes.Compare(items[idx[mid]].keyBytes(), bound)
		if cmp < 0 || (!incl && cmp == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// keyPosIn returns key's merge position in the key-sorted view, with a
// one-compare fast path for the common append-at-end (ascending insert)
// case.
func keyPosIn(items []*kv, idx []int32, key []byte) int {
	n := len(idx)
	if n == 0 || bytes.Compare(items[idx[n-1]].keyBytes(), key) < 0 {
		return n
	}
	return lowerBoundIdx(items, idx, key, true)
}

// view returns the block's entry arrays; n is the leaf's published entry
// count (authoritative while the caller's seqlock bracket holds).
func (b *tagBlock) view(n int) ([]uint32, []*kv) {
	if bg := b.big; bg != nil {
		n = min(n, len(bg.hashes), len(bg.items))
		return bg.hashes[:n], bg.items[:n]
	}
	if n > tagBlockCap {
		n = tagBlockCap
	}
	return b.hashes[:n], b.items[:n]
}

// sortedView returns the block's key-sorted index view for the leaf's
// published entry count n, and the item array it indexes: order[k] is an
// index into items. items is the block's whole array, not cut to n,
// because a lock-free reader can pair the block with an n from another
// generation — and every index the block holds is below its own
// population, which n does not bound. A stale smaller n thus still
// indexes populated slots, and a stale larger n reads zero indices past
// the population, i.e. items[0], which every block but the shared empty
// one populates. Memory-safe either way; the seqlock bracket discards the
// mixed read. Under mu, n is exact.
func (b *tagBlock) sortedView(n int) ([]*kv, []int32) {
	if bg := b.big; bg != nil {
		return bg.items, bg.order[:min(n, len(bg.order))]
	}
	if b == emptyTagBlock {
		return nil, nil
	}
	return b.items[:], b.order[:min(n, tagBlockCap)]
}

// tagsView is a point-in-time view of a leaf's hash index, materialized
// as entries for the cold paths (invariants, tests); the hot lookup path
// reads the structures directly (findTags).
type tagsView struct {
	base, tail []tagEnt
}

// size returns the number of items the view covers.
func (v tagsView) size() int { return len(v.base) + len(v.tail) }

// leafNode is one LeafList node (Figure 7).
//
// base, baseN, tailLen and the tail slots are the leaf's one item list:
// the hash index lock-free readers search and, through the base's order
// view merged with the tail by position, the key-sorted list every scan,
// split and merge walks (see the tagBlock comment; sortedItems).
//
// seq is the leaf's seqlock word: even when the leaf is stable, odd while
// a writer is mutating the item set or overwriting a value in place. An
// optimistic reader snapshots seq, reads, and revalidates; on a collision
// it retries and eventually falls back to the mu.RLock path. Immutable
// snapshot publication already rules out torn tag arrays — the seqlock's
// jobs are certifying the in-place (vptr, vlen) value pairs, detecting an
// overlapping writer early, and bounding optimistic spinning under write
// pressure.
type leafNode struct {
	// The fields an optimistic reader touches — seq, version, dead, base,
	// tailLen, anchor — lead the struct so one cache line serves the whole
	// leaf-header read; mu and the writer-side bookkeeping follow.
	seq atomic.Uint64
	// version is the "expected version" of §2.5: set to (current table
	// version + 1) while the leaf is locked for a split/merge. A reader
	// that reached this leaf through an older table observes
	// version > tableVersion and restarts.
	version atomic.Uint64
	base    atomic.Pointer[tagBlock]
	baseN   atomic.Int32 // entry count of base (see tagBlock)
	tailLen atomic.Int32
	anchor  atomic.Pointer[anchor]
	dead    atomic.Bool // set when the leaf is merged away (victim)

	mu sync.RWMutex

	tailHash [tagTailMax]atomic.Uint32
	tailItem [tagTailMax]atomic.Pointer[kv]
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

	// slab is the append-only backing store for this leaf's own kv items
	// (chunked; a full chunk is abandoned to the items pointing into it
	// and replaced, so a *kv never moves). Guarded by mu.
	slab []kv

	prev, next atomic.Pointer[leafNode]
}

func newLeafNode(a anchor) *leafNode {
	l := &leafNode{}
	l.base.Store(emptyTagBlock)
	l.anchor.Store(&a)
	return l
}

// sortedView returns the key-sorted view of l's base block (see
// tagBlock.sortedView).
func (l *leafNode) sortedView() ([]*kv, []int32) {
	return l.base.Load().sortedView(int(l.baseN.Load()))
}

// tags returns an entry view of the current hash index (cold paths; the
// lookup path is findTags). Callers needing a consistent view hold mu.
func (l *leafNode) tags() tagsView {
	hashes, items := l.base.Load().view(int(l.baseN.Load()))
	v := tagsView{}
	if len(hashes) > 0 {
		v.base = make([]tagEnt, len(hashes))
		for i, h := range hashes {
			v.base[i] = tagEnt{hash: h, it: items[i]}
		}
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl && i < tagTailMax; i++ {
		v.tail = append(v.tail, tagEnt{hash: l.tailHash[i].Load(), it: l.tailItem[i].Load()})
	}
	return v
}

// findTags locates (h, key) in the hash index: positioned search over the
// base block's dense hash array (§3.2's direct positioning or binary
// search), then — on a miss only — a linear scan of the short inline
// tail. Safe without any lock; optimistic callers bracket it with the
// seqlock (see the tagBlock comment for why no read here can fault).
func (l *leafNode) findTags(h uint32, key []byte, directPos bool) *kv {
	hashes, items := l.base.Load().view(int(l.baseN.Load()))
	if directPos && len(items) > 0 {
		// Touch the item slot at the speculative position while the hash
		// walk's own loads are in flight; the final position is almost
		// always on the same or an adjacent line, so the item-array miss
		// overlaps the hash-array miss instead of following it. The
		// comparison feeds a benign branch so the load stays live.
		if items[int(uint64(h)*uint64(len(items))>>32)] == nil && h == 0 {
			return nil
		}
	}
	if i := tagPos(hashes, h, directPos); i < len(hashes) {
		for ; i < len(hashes) && hashes[i] == h; i++ {
			if it := items[i]; it != nil && bytes.Equal(it.keyBytes(), key) {
				return it
			}
		}
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl && i < tagTailMax; i++ {
		if l.tailHash[i].Load() == h {
			if it := l.tailItem[i].Load(); it != nil && bytes.Equal(it.keyBytes(), key) {
				return it
			}
		}
	}
	return nil
}

// beginMutate/endMutate bracket every item-set mutation and every
// in-place value overwrite with the seqlock (caller holds mu).
func (l *leafNode) beginMutate() { l.seq.Add(1) }
func (l *leafNode) endMutate()   { l.seq.Add(1) }

// slabChunk is the kv-slab growth unit cap.
const slabChunk = 64

// newKV allocates an item from the leaf's slab (caller holds mu). Chunks
// are never reallocated in place — kv addresses are stable for the life
// of the index, which both the published tag arrays and the no-copy rule
// on kv (it embeds atomics) rely on.
func (l *leafNode) newKV(h uint32, key, val []byte) *kv {
	if len(l.slab) == cap(l.slab) {
		c := cap(l.slab) * 2
		if c < 8 {
			c = 8
		}
		if c > slabChunk {
			c = slabChunk
		}
		l.slab = make([]kv, 0, c)
	}
	l.slab = l.slab[:len(l.slab)+1]
	it := &l.slab[len(l.slab)-1]
	it.hash = h
	it.setKey(key)
	if val != nil {
		it.setValue(val)
	}
	return it
}

// size returns the leaf's item count (exact under mu).
func (l *leafNode) size() int { return int(l.baseN.Load() + l.tailLen.Load()) }

// tagPos returns the first index in the sorted hash array a whose value
// is >= h (== len(a) when every hash is smaller).
//
// With directPos the start index is speculated as hash*size/2^32 — with a
// uniform hash this lands within a step or two of the right run (§3.2's
// direct speculative positioning), and on the dense 4-byte array the
// speculation and the true position almost always share a cache line.
// Otherwise a binary search is used.
func tagPos(a []uint32, h uint32, directPos bool) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	if !directPos {
		return sort.Search(n, func(j int) bool { return a[j] >= h })
	}
	i := int(uint64(h) * uint64(n) >> 32)
	for i > 0 && h <= a[i-1] {
		i--
	}
	for i < n && h > a[i] {
		i++
	}
	return i
}

// find locates key in the leaf. With sortByTag it searches the published
// tag-array snapshot; without (BaseWormhole) it binary-searches the base's
// key-sorted order view and scans the short tail linearly, comparing full
// keys — the behaviour Figure 11's ablation isolates. The key-sorted path
// requires mu to be held.
func (l *leafNode) find(h uint32, key []byte, sortByTag, directPos bool) *kv {
	if sortByTag {
		return l.findTags(h, key, directPos)
	}
	items, order := l.sortedView()
	if i := lowerBoundIdx(items, order, key, true); i < len(order) {
		if it := items[order[i]]; bytes.Equal(it.keyBytes(), key) {
			return it
		}
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl; i++ {
		if it := l.tailItem[i].Load(); bytes.Equal(it.keyBytes(), key) {
			return it
		}
	}
	return nil
}

// insert adds a new item; the caller holds mu and has verified the key is
// absent. The common case appends to the inline tail — three atomic
// stores, no allocation — and the tail is folded into a fresh base block
// on the insert that would exceed tagTailMax.
func (l *leafNode) insert(it *kv) {
	l.beginMutate()
	tl := int(l.tailLen.Load())
	if tl < tagTailMax {
		items, order := l.sortedView()
		pos := int32(keyPosIn(items, order, it.keyBytes()))
		// Keep the inline tail (pos, key)-sorted: find the insertion
		// slot, shift the greater suffix up one, store the new item. The
		// shift's transient duplicates are inside this bracket, so
		// optimistic readers discard them; scans then merge the tail by
		// position straight from the slots, sorting nothing at read time.
		s := tl
		for s > 0 {
			p := l.tailPos[s-1].Load()
			if p < pos || (p == pos && bytes.Compare(l.tailItem[s-1].Load().keyBytes(), it.keyBytes()) < 0) {
				break
			}
			s--
		}
		for i := tl; i > s; i-- {
			l.tailHash[i].Store(l.tailHash[i-1].Load())
			l.tailItem[i].Store(l.tailItem[i-1].Load())
			l.tailPos[i].Store(l.tailPos[i-1].Load())
		}
		l.tailHash[s].Store(it.hash)
		l.tailItem[s].Store(it)
		l.tailPos[s].Store(pos)
		l.tailLen.Store(int32(tl + 1))
	} else {
		// Fold: merge the tail into a fresh base block — O(size) copies,
		// no full re-sort, no intermediate entry array. Two walks share
		// the work: the (hash, key) merge fills the lookup arrays and
		// records every element's position in the new item array; the
		// key-order walk then rebuilds the index view by merging the old
		// view with the (pos, key)-sorted tail slots through those
		// recorded positions — comparing integers, not keys. The only key
		// comparisons are the new item's own placement (its merge
		// position plus its slot among the sorted tail) and hash ties in
		// the small tail sort.
		ob := l.base.Load()
		bn := int(l.baseN.Load())
		oh, oldItems := ob.view(bn)
		_, oo := ob.sortedView(bn)

		// The new item joins the (pos, key)-sorted tail in a local copy.
		newPos := int32(keyPosIn(oldItems, oo, it.keyBytes()))
		sl := tl
		for sl > 0 {
			p := l.tailPos[sl-1].Load()
			if p < newPos || (p == newPos && bytes.Compare(l.tailItem[sl-1].Load().keyBytes(), it.keyBytes()) < 0) {
				break
			}
			sl--
		}
		var titems [tagTailMax + 1]*kv
		var thash [tagTailMax + 1]uint32
		var tpos [tagTailMax + 1]int32
		for i := 0; i < sl; i++ {
			titems[i], thash[i], tpos[i] = l.tailItem[i].Load(), l.tailHash[i].Load(), l.tailPos[i].Load()
		}
		titems[sl], thash[sl], tpos[sl] = it, it.hash, newPos
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
					bytes.Compare(titems[x].keyBytes(), titems[y].keyBytes()) >= 0) {
					break
				}
				hs[j], hs[j-1] = hs[j-1], hs[j]
			}
		}

		n := len(oh) + m
		nh, ni, no := newTagBlockInto(l, n)
		var onBuf [tagBlockCap]int32
		oldToNew := onBuf[:]
		if len(oh) > tagBlockCap {
			oldToNew = make([]int32, len(oh)) // fat leaf: rare
		}
		oldToNew = oldToNew[:len(oh)]
		var tailToNew [tagTailMax + 1]int32
		o := 0
		bi := 0
		ti := 0
		for bi < len(oh) && ti < m {
			j := hs[ti]
			if oh[bi] < thash[j] || (oh[bi] == thash[j] &&
				bytes.Compare(oldItems[bi].keyBytes(), titems[j].keyBytes()) < 0) {
				nh[o], ni[o] = oh[bi], oldItems[bi]
				oldToNew[bi] = int32(o)
				bi++
			} else {
				nh[o], ni[o] = thash[j], titems[j]
				tailToNew[j] = int32(o)
				ti++
			}
			o++
		}
		for ; bi < len(oh); bi++ {
			nh[o], ni[o] = oh[bi], oldItems[bi]
			oldToNew[bi] = int32(o)
			o++
		}
		for ; ti < m; ti++ {
			j := hs[ti]
			nh[o], ni[o] = thash[j], titems[j]
			tailToNew[j] = int32(o)
			o++
		}

		// Key-order walk: old view interleaved with the pos-sorted tail.
		o = 0
		tj := 0
		for x := 0; x < len(oo); x++ {
			for tj < m && int(tpos[tj]) == x {
				no[o] = tailToNew[tj]
				o++
				tj++
			}
			no[o] = oldToNew[oo[x]]
			o++
		}
		for ; tj < m; tj++ {
			no[o] = tailToNew[tj]
			o++
		}
		l.publishTagBlock(n)
	}
	l.endMutate()
}

// pendingTagBlock passes the block under construction from
// newTagBlockInto to publishTagBlock (single writer; caller holds mu).
//
// newTagBlockInto allocates a block sized for n entries (the shared empty
// block when n is 0) and returns its writable arrays; publishTagBlock
// stores it as the new base and empties the tail.
func newTagBlockInto(l *leafNode, n int) ([]uint32, []*kv, []int32) {
	if n == 0 {
		l.pendingBlock = emptyTagBlock
		return nil, nil, nil
	}
	b := &tagBlock{}
	if n > tagBlockCap {
		b.big = &tagBlockBig{hashes: make([]uint32, n), items: make([]*kv, n), order: make([]int32, n)}
		l.pendingBlock = b
		return b.big.hashes, b.big.items, b.big.order
	}
	l.pendingBlock = b
	return b.hashes[:n], b.items[:n], b.order[:n]
}

func (l *leafNode) publishTagBlock(n int) {
	l.base.Store(l.pendingBlock)
	l.pendingBlock = nil
	l.baseN.Store(int32(n))
	l.tailLen.Store(0)
}

// remove deletes the item (previously returned by find); caller holds mu.
// The item's slab slot is not recycled — an optimistic reader may still
// hold a reference to it — but its value pointer is dropped so the slot
// does not pin the value buffer for the life of its slab chunk. (The key
// pair stays: it is read race-free by lock-free readers precisely because
// it is never written after construction.)
func (l *leafNode) remove(it *kv) {
	l.beginMutate()
	// Inside the bracket: a reader that loaded the (nil, 0) pair observes
	// the seqlock moving and discards it; validated readers never see it.
	it.vptr.Store(nil)
	it.vlen.Store(0)
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
		oh, oi := ob.view(bn)
		_, oo := ob.sortedView(bn)
		nh, ni, no := newTagBlockInto(l, len(oh)-1)
		o := 0
		ri := len(oi) // removed item's index in the old item array
		for i, m := range oi {
			if m != it {
				nh[o], ni[o] = oh[i], m
				o++
			} else {
				ri = i
			}
		}
		j := 0
		rp := len(oo) // removed item's slot in the old key-sorted view
		for x, ix := range oo {
			if int(ix) == ri {
				rp = x
				continue
			}
			if int(ix) > ri {
				ix--
			}
			no[j] = ix
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
func (l *leafNode) tailIndexOf(it *kv) int {
	tl := int(l.tailLen.Load())
	for i := 0; i < tl; i++ {
		if l.tailItem[i].Load() == it {
			return i
		}
	}
	return -1
}

// sortedScratch recycles the key-sorted item buffers that splits and
// merges build with sortedItems. A buffer never escapes its lock-holding
// caller and is cleared before it goes back (putSorted), so pooling keeps
// splits allocation-free without pinning items.
var sortedScratch = sync.Pool{
	New: func() any {
		b := make([]*kv, 0, tagBlockCap)
		return &b
	},
}

func getSorted() *[]*kv { return sortedScratch.Get().(*[]*kv) }

func putSorted(bufp *[]*kv, items []*kv) {
	clear(items[:cap(items)])
	*bufp = items[:0]
	sortedScratch.Put(bufp)
}

// sortedItems appends l's items to dst in key order: the base block's
// order view merged with the (pos, key)-sorted inline tail by merge
// position, comparing no keys — the walk mergeAsc does for scans. Caller
// holds mu.
func sortedItems(l *leafNode, dst []*kv) []*kv {
	items, order := l.sortedView()
	tl := int(l.tailLen.Load())
	ti := 0
	for x, ix := range order {
		for ; ti < tl && int(l.tailPos[ti].Load()) <= x; ti++ {
			dst = append(dst, l.tailItem[ti].Load())
		}
		dst = append(dst, items[ix])
	}
	for ; ti < tl; ti++ {
		dst = append(dst, l.tailItem[ti].Load())
	}
	return dst
}

// setSorted publishes key-sorted items as l's whole item list — a fresh
// base block and an empty tail — after a split, a merge or a bulk load.
// The previous block is left intact for readers still holding it. Caller
// holds mu.
//
// The input's key order makes an item's index its key rank, so the
// (hash, key) order is a plain sort of packed hash<<32|rank integers and
// the order view falls out of it: no key is compared.
func (l *leafNode) setSorted(items []*kv) {
	var buf [tagBlockCap]uint64
	ranks := buf[:0]
	if len(items) > tagBlockCap {
		ranks = make([]uint64, 0, len(items))
	}
	for i, it := range items {
		ranks = append(ranks, uint64(it.hash)<<32|uint64(i))
	}
	slices.Sort(ranks)
	nh, ni, no := newTagBlockInto(l, len(items))
	for i, r := range ranks {
		k := uint32(r)
		nh[i], ni[i], no[k] = uint32(r>>32), items[k], int32(i)
	}
	l.publishTagBlock(len(items))
}

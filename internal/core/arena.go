package core

import (
	"bytes"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// A leaf keeps every key and value it holds in one append-only byte arena
// (the paper's leaf keeps each item inline too). The arena opens with the
// leaf's fence prefix, padded to 8 bytes: the longest common prefix of the
// leaf's real anchor and its right neighbour's (empty for the rightmost
// leaf). Every key k the leaf can own, real(anchor) <= k < real(next),
// starts with it, so each record stores only the key bytes after it — the
// suffix. An item is one 8-byte aligned record:
//
//	[0, 8)   value ref: the current value's offset in 8-byte units (high
//	         32 bits) and its length (low 32 bits), loaded and stored
//	         atomically
//	[8, 12)  the whole key's hash (CRC32-C)
//	[12, 16) the suffix's length
//	[16, …)  the suffix, then the record's first value, each padded to 8
//
// and a record ref is the record's offset in 8-byte units. The arena holds
// no pointers, so the collector never scans it, and a lookup or a scan
// touches one contiguous record where a key, a value and an item header
// would otherwise be three allocations.
//
// The prefix is written before the arena is published and never changes
// for the arena's life. A leaf's fences move apart only when it absorbs its
// right neighbour (a merge), and narrow only when it splits; both build
// fresh arenas, and so do bulk loads and compactions, so suffixes are
// re-cut (copyIn) only where every record is copied anyway.
//
// The arena only grows: a record or an overwrite's new value is written
// above the high-water mark hw, and hw is published (atomically) before
// any ref or value ref that points at the new bytes. No byte below hw is
// ever written again, except value refs, which are only ever accessed
// atomically. So Get hands out value slices into the arena (capacity
// clipped to their length) exactly as long as it likes; a key handed out
// is the arena's suffix when the prefix is empty, and otherwise assembled
// from the two.
//
// The reader rule, for a lock-free reader:
//
//   - load the leaf's arena pointer before the block or any tail slot
//     (writers store a new arena last, after the block and tail that
//     point into it), so a ref the reader loads is never older than its
//     arena — at worst newer, into an arena already frozen by a
//     compaction, whose bytes were all written before that ref was — and
//     every ref resolves against the prefix that came with its arena;
//   - before touching a record's bytes, check ref plus the bytes needed
//     against hw, loaded from the same arena after the ref (peekSfx,
//     peekVal).
//
// A ref from a mixed generation then reads only bytes written before it
// was loaded: no fault and no race, and the seqlock bracket discards the
// result. Values become slices only after the bracket validates.
//
// When an append does not fit, the leaf moves to a fresh arena (reserve):
// a grown copy when it holds little garbage, otherwise a compacted one —
// its live records copied in key order, the block republished. Splits,
// merges and bulk loads build fresh arenas the same way. Every fresh arena
// gets spare room in proportion to what it holds, so overwrite and delete
// garbage stays bounded and the copying costs O(1) per byte written,
// amortized.

// recHdr is the size of a record header.
const recHdr = 16

// A fresh arena's spare room. An arena built by a split, a merge, a bulk
// load or growth gets 1/arenaHeadroom of its bytes: little, because that
// is the space a freshly loaded index carries. A compacted arena belongs
// to a leaf that is being overwritten or churned, and gets
// 1/compactHeadroom of its live bytes: that room sets how often the leaf
// compacts again.
const (
	arenaHeadroom   = 6
	compactHeadroom = 2
)

// maxArena bounds an arena so every offset fits 32 bits of 8-byte units.
const maxArena = 1 << 35

// noRef is no record (a miss).
const noRef = math.MaxUint32

// arena is one leaf's record store. buf's length is fixed at creation, and
// buf[:plen] is the fence prefix.
type arena struct {
	hw   atomic.Uint64 // bytes written and published
	live int           // bytes of live records and current values; guarded by the leaf's mu
	plen int           // fence prefix length; immutable
	buf  []byte
}

// emptyArena is the arena of a fresh leaf: no room and no prefix, so the
// first insert sizes a real one. Only a rightmost leaf starts out empty.
var emptyArena = &arena{}

func align8(n int) int { return (n + 7) &^ 7 }

// recSize is the arena bytes of a record with a k-byte suffix and a v-byte
// value.
func recSize(k, v int) int { return recHdr + align8(k) + align8(v) }

// withHeadroom returns n plus 1/arenaHeadroom of it.
func withHeadroom(n int) int { return n + n/arenaHeadroom }

// newArena returns an arena holding prefix, with room for at least n bytes
// of records after it. The capacity is rounded up to the allocator's size
// class, which would otherwise be allocated and never used.
func newArena(prefix []byte, n int) *arena {
	p := align8(len(prefix))
	if p+n > maxArena {
		panic("wormhole: leaf data over 32 GiB")
	}
	buf := slices.Grow([]byte(nil), p+n)
	a := &arena{buf: buf[:cap(buf)], plen: len(prefix)}
	copy(a.buf, prefix)
	a.hw.Store(uint64(p))
	return a
}

// grow returns a copy of a with room for n more bytes plus the headroom:
// every byte written, so every ref and value ref stays valid. Writers
// only.
func (a *arena) grow(n int) *arena {
	hw := int(a.hw.Load())
	na := newArena(nil, withHeadroom(hw+n))
	copy(na.buf, a.buf[:hw])
	na.plen, na.live = a.plen, a.live
	na.hw.Store(uint64(hw))
	return na
}

// prefix returns the fence prefix every key in the arena starts with.
func (a *arena) prefix() []byte { return a.buf[:a.plen:a.plen] }

// garbage returns the bytes below hw that neither the prefix nor a live
// record holds (writers only).
func (a *arena) garbage() int { return int(a.hw.Load()) - align8(a.plen) - a.live }

// cut places key against the prefix: rel < 0 when key sorts below every
// key with the prefix, rel > 0 when above, and rel == 0 when key starts
// with it, sfx then being the bytes after it.
func (a *arena) cut(key []byte) (sfx []byte, rel int) {
	p := a.prefix()
	if len(key) < len(p) {
		if c := bytes.Compare(key, p[:len(key)]); c != 0 {
			return nil, c
		}
		return nil, -1 // a proper prefix of the prefix
	}
	if c := bytes.Compare(key[:len(p)], p); c != 0 {
		return nil, c
	}
	return key[len(p):], 0
}

// packVal packs a value ref.
func packVal(off, n int) uint64 {
	if uint64(n) > math.MaxUint32 {
		panic("wormhole: value longer than 4 GiB")
	}
	return uint64(off>>3)<<32 | uint64(n)
}

func (a *arena) u32(off int) *uint32 { return (*uint32)(unsafe.Pointer(&a.buf[off])) }

func (a *arena) valWord(ref uint32) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&a.buf[int(ref)<<3]))
}

// hash returns the hash of the record's whole key.
func (a *arena) hash(ref uint32) uint32 { return *a.u32(int(ref)<<3 + 8) }

// sfx returns the record's key suffix. Lock-free readers use peekSfx until
// their bracket validates.
func (a *arena) sfx(ref uint32) []byte {
	off := int(ref)<<3 + recHdr
	n := int(*a.u32(off - 4))
	return a.buf[off : off+n : off+n]
}

// appendKey appends the record's whole key, prefix and suffix, to dst.
func (a *arena) appendKey(dst []byte, ref uint32) []byte {
	return append(append(dst, a.prefix()...), a.sfx(ref)...)
}

// val loads the record's value ref.
func (a *arena) val(ref uint32) uint64 { return a.valWord(ref).Load() }

// value materializes a value ref; an empty value reads back nil.
func (a *arena) value(v uint64) []byte {
	n := int(uint32(v))
	if n == 0 {
		return nil
	}
	off := int(v>>32) << 3
	return a.buf[off : off+n : off+n]
}

// size returns the arena bytes the record and its current value hold.
func (a *arena) size(ref uint32) int {
	return recSize(int(*a.u32(int(ref)<<3 + 12)), int(uint32(a.val(ref))))
}

// peekSfx is sfx under the reader rule: ok is false unless the record's
// header and suffix lie below hw.
func (a *arena) peekSfx(ref uint32) (sfx []byte, ok bool) {
	off := uint64(ref)<<3 + recHdr
	hw := a.hw.Load()
	if off > hw {
		return nil, false
	}
	end := off + uint64(*a.u32(int(off) - 4))
	if end > hw {
		return nil, false
	}
	return a.buf[off:end:end], true
}

// holds reports, under the reader rule, whether the record ref names holds
// key: its suffix equals key's bytes after the prefix, and key starts with
// the prefix. A key from outside the fences whose hash and suffix both
// match a record is thus never taken for it.
func (a *arena) holds(ref uint32, key []byte) bool {
	s, ok := a.peekSfx(ref)
	return ok && len(key) == a.plen+len(s) && bytes.Equal(key[a.plen:], s) &&
		bytes.Equal(key[:a.plen], a.prefix())
}

// peekVal is val under the reader rule: ok is false unless the record's
// header lies below hw.
func (a *arena) peekVal(ref uint32) (v uint64, ok bool) {
	if uint64(ref)<<3+recHdr > a.hw.Load() {
		return 0, false
	}
	return a.val(ref), true
}

// touch loads the record ref names, if its header and the suffix of a
// k-byte key lie below hw: the header's hash field (not the value ref,
// which writers store atomically) and the suffix's last byte, so a record
// spanning two lines is fetched whole, plus the prefix's first byte. It
// returns what it read; the batched read pipeline touches a record this
// way a round before it reads it, without waiting on the record's own
// bytes.
func (a *arena) touch(ref uint32, k int) uint {
	off := uint64(ref)<<3 + recHdr
	k -= a.plen
	if end := off + uint64(k); k > 0 && end <= a.hw.Load() {
		x := uint(a.buf[off-8]) + uint(a.buf[end-1])
		if a.plen > 0 {
			x += uint(a.buf[0])
		}
		return x
	}
	return 0
}

// room reports whether n more bytes fit (writers only).
func (a *arena) room(n int) bool { return int(a.hw.Load())+n <= len(a.buf) }

// put appends a record for (h, sfx, val) — h the whole key's hash, sfx its
// bytes after the prefix — publishes it and returns its ref. The caller
// holds the leaf's mu and has made room.
func (a *arena) put(h uint32, sfx, val []byte) uint32 {
	off := int(a.hw.Load())
	end := a.write(off, h, nil, sfx, val)
	a.hw.Store(uint64(end))
	return uint32(off >> 3)
}

// write writes a record for (h, head+tail, val) — the suffix given in two
// pieces, so a re-cut needs no scratch copy — at off, which is at or above
// hw, and returns the record's end; put publishes it, while a fresh arena
// being filled before anyone can see it publishes its hw once (copyIn).
func (a *arena) write(off int, h uint32, head, tail, val []byte) int {
	n := len(head) + len(tail)
	if uint64(n) > math.MaxUint32 {
		panic("wormhole: key longer than 4 GiB")
	}
	*a.u32(off + 8) = h
	*a.u32(off + 12) = uint32(n)
	k := off + recHdr
	copy(a.buf[k:k+len(head)], head)
	copy(a.buf[k+len(head):k+n], tail)
	voff := k + align8(n)
	copy(a.buf[voff:voff+len(val)], val)
	*(*uint64)(unsafe.Pointer(&a.buf[off])) = packVal(voff, len(val))
	end := voff + align8(len(val))
	a.live += end - off
	return end
}

// setValue appends val as the record's new value: the bytes, then hw,
// then the value ref. The caller holds the leaf's mu, has made room, and
// brackets the call with the seqlock.
func (a *arena) setValue(ref uint32, val []byte) {
	off := int(a.hw.Load())
	copy(a.buf[off:off+len(val)], val)
	a.hw.Store(uint64(off + align8(len(val))))
	w := a.valWord(ref)
	a.live += align8(len(val)) - align8(int(uint32(w.Load())))
	w.Store(packVal(off, len(val)))
}

// drop accounts for a removed record; its bytes stay for readers still
// holding its ref.
func (a *arena) drop(ref uint32) { a.live -= a.size(ref) }

// sizeAs sums the arena bytes the records refs name take in an arena whose
// prefix is plen bytes long.
func (a *arena) sizeAs(refs []uint32, plen int) int {
	n := 0
	for _, r := range refs {
		n += recSize(a.plen+len(a.sfx(r))-plen, int(uint32(a.val(r))))
	}
	return n
}

// copyIn appends copies of the records refs name in src, with their
// current values, to a fresh arena nobody can see yet, and rewrites refs
// to the copies. Each key is re-cut against a's prefix: every key shares
// it, because a's fences lie within, or (a merge) around, src's.
func (a *arena) copyIn(src *arena, refs []uint32) {
	off := int(a.hw.Load())
	pre := src.prefix()
	for i, r := range refs {
		refs[i] = uint32(off >> 3)
		head, tail := pre, src.sfx(r)
		if a.plen <= len(head) {
			head = head[a.plen:]
		} else {
			head, tail = nil, tail[a.plen-len(head):]
		}
		off = a.write(off, src.hash(r), head, tail, src.value(src.val(r)))
	}
	a.hw.Store(uint64(off))
}

// fencePrefix returns the prefix every key k with lo <= k < hi shares: the
// longest common prefix of the two fences, empty when hi is nil (no upper
// fence).
func fencePrefix(lo, hi []byte) []byte { return lo[:lcp(lo, hi)] }

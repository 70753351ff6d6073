package core

import (
	"bytes"
	"math/bits"
	"unsafe"
)

// metaNode is one MetaTrieHT item (Figure 5/6). An item is either a leaf
// item — the full stored anchor of a LeafList node — or an internal item,
// one proper prefix of some anchor. The prefix condition guarantees a
// stored key is never both.
//
// Internal items carry a 256-bit child bitmap (one bit per possible next
// token) plus the leftmost and rightmost LeafList nodes of the trie subtree
// rooted at this prefix. These two pointers are what let a failed prefix
// match jump straight to the target leaf (§2.3's sibling rule).
type metaNode struct {
	key    []byte // stored prefix this item represents
	leaf   *leafNode
	bitmap [4]uint64 // internal items only: which child tokens exist
	// Subtree boundary leaves (internal items only).
	leftmost, rightmost *leafNode
}

func (n *metaNode) isLeafItem() bool { return n.leaf != nil }

func (n *metaNode) setBit(tok byte)   { n.bitmap[tok>>6] |= 1 << (tok & 63) }
func (n *metaNode) clearBit(tok byte) { n.bitmap[tok>>6] &^= 1 << (tok & 63) }
func (n *metaNode) hasBit(tok byte) bool {
	return n.bitmap[tok>>6]&(1<<(tok&63)) != 0
}
func (n *metaNode) bitmapEmpty() bool {
	return n.bitmap[0]|n.bitmap[1]|n.bitmap[2]|n.bitmap[3] == 0
}

// leftSibling returns the largest set token strictly below tok.
func (n *metaNode) leftSibling(tok byte) (byte, bool) {
	w := int(tok >> 6)
	rem := uint(tok & 63)
	// Mask off bits >= rem in the first word, then walk down.
	m := n.bitmap[w] & (1<<rem - 1)
	for {
		if m != 0 {
			return byte(w<<6 + 63 - bits.LeadingZeros64(m)), true
		}
		w--
		if w < 0 {
			return 0, false
		}
		m = n.bitmap[w]
	}
}

// rightSibling returns the smallest set token strictly above tok.
func (n *metaNode) rightSibling(tok byte) (byte, bool) {
	w := int(tok >> 6)
	rem := uint(tok & 63)
	var m uint64
	if rem == 63 {
		m = 0
	} else {
		m = n.bitmap[w] &^ (1<<(rem+1) - 1)
	}
	for {
		if m != 0 {
			return byte(w<<6 + bits.TrailingZeros64(m)), true
		}
		w++
		if w > 3 {
			return 0, false
		}
		m = n.bitmap[w]
	}
}

// metaBucketWidth is the number of (tag, node) pairs per hash bucket,
// mirroring the paper's 8-entry cache-line slot (Figure 6).
const metaBucketWidth = 8

type metaBucket struct {
	tags  [metaBucketWidth]uint16
	nodes [metaBucketWidth]*metaNode
	next  *metaBucket // overflow chain; rare after resize
}

// littleEndian reports whether uint16 lanes viewed through a uint64 map
// low lane to low bits — the layout tagMask's SWAR compare assumes.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// tagMask compares all eight slot tags against tag at once (two 64-bit
// SWAR compares over the contiguous tag array — the cache-line bucket
// layout of Figure 6 pays off here) and returns a bitmask of matching
// slots. Empty slots carry tag 0 and a nil node, so callers must still
// nil-check the node behind a set bit. On big-endian hosts, where the
// lane order would invert the slot mapping, it falls back to a scalar
// scan (the branch is a package-constant predict).
func (b *metaBucket) tagMask(tag uint16) uint32 {
	if !littleEndian {
		var m uint32
		for i := 0; i < metaBucketWidth; i++ {
			if b.tags[i] == tag {
				m |= 1 << i
			}
		}
		return m
	}
	t := uint64(tag)
	pat := t | t<<16 | t<<32 | t<<48
	p := (*[2]uint64)(unsafe.Pointer(&b.tags[0]))
	return swarZero16(p[0]^pat) | swarZero16(p[1]^pat)<<4
}

// swarZero16 returns a 4-bit mask of which 16-bit lanes of x are zero.
func swarZero16(x uint64) uint32 {
	y := (x - 0x0001000100010001) & ^x & 0x8000800080008000
	return uint32(y>>15&1 | y>>30&2 | y>>45&4 | y>>60&8)
}

// metaTable is one copy of the MetaTrieHT. Wormhole keeps two copies (§2.5):
// the published one, read lock-free under QSBR protection, and a spare. A
// table is only ever mutated while it is the spare (never observable), so
// none of the methods below need synchronization. version is assigned just
// before a table is published and is immutable while the table is visible.
type metaTable struct {
	buckets []metaBucket
	mask    uint32
	count   int
	maxLen  int // length of the longest stored anchor (L_anc)
	version uint64
	// root caches the empty-key item — the anchor of every LPM binary
	// search — so lookups skip one bucket probe per operation. It exists
	// in every consistent table (the head leaf's anchor is the empty key
	// or ⊥-extends it, and every proper prefix of a stored anchor has an
	// internal item).
	root *metaNode
}

func newMetaTable(buckets int) *metaTable {
	size := 8
	for size < buckets {
		size <<= 1
	}
	return &metaTable{buckets: make([]metaBucket, size), mask: uint32(size - 1)}
}

// get returns the item whose stored key equals key (hashed to h), with full
// key verification: the 16-bit tags are compared first (§3.1's tag
// matching), and only a tag hit falls through to a byte comparison.
func (t *metaTable) get(h uint32, key []byte) *metaNode {
	tag := metaTag(h)
	for b := &t.buckets[h&t.mask]; b != nil; b = b.next {
		for m := b.tagMask(tag); m != 0; m &= m - 1 {
			n := b.nodes[bits.TrailingZeros32(m)]
			if n != nil && bytes.Equal(n.key, key) {
				return n
			}
		}
	}
	return nil
}

// getTagOnly returns the first item in h's bucket chain whose tag matches,
// without verifying the key — the optimistic probe of §3.1. A false
// positive is possible and is detected by the caller's final full-key
// verification.
func (t *metaTable) getTagOnly(h uint32) *metaNode {
	tag := metaTag(h)
	for b := &t.buckets[h&t.mask]; b != nil; b = b.next {
		for m := b.tagMask(tag); m != 0; m &= m - 1 {
			if n := b.nodes[bits.TrailingZeros32(m)]; n != nil {
				return n
			}
		}
	}
	return nil
}

// getChild looks up parent.key + one extra token without materializing the
// concatenation. parentHash must be the hash of parent.key.
func (t *metaTable) getChild(parentHash uint32, parent []byte, tok byte) *metaNode {
	h := hashExtendByte(parentHash, tok)
	tag := metaTag(h)
	for b := &t.buckets[h&t.mask]; b != nil; b = b.next {
		for m := b.tagMask(tag); m != 0; m &= m - 1 {
			n := b.nodes[bits.TrailingZeros32(m)]
			if n != nil && equalWithSuffixByte(n.key, parent, tok) {
				return n
			}
		}
	}
	return nil
}

// set inserts node under its key. The caller guarantees the key is absent.
func (t *metaTable) set(node *metaNode) {
	if t.count >= len(t.buckets)*6 {
		t.grow()
	}
	h := hashKey(node.key)
	t.insert(h, node)
	t.count++
	if len(node.key) > t.maxLen {
		t.maxLen = len(node.key)
	}
	if len(node.key) == 0 {
		t.root = node
	}
}

func (t *metaTable) insert(h uint32, node *metaNode) {
	tag := metaTag(h)
	b := &t.buckets[h&t.mask]
	for {
		for i := 0; i < metaBucketWidth; i++ {
			if b.nodes[i] == nil {
				b.nodes[i] = node
				b.tags[i] = tag
				return
			}
		}
		if b.next == nil {
			b.next = &metaBucket{}
		}
		b = b.next
	}
}

// remove deletes the item with the given stored key, returning it. When
// the removed key was (one of) the longest stored, maxLen is recomputed:
// leaving it stale would keep the LPM binary search probing to an upper
// bound no anchor can reach anymore, so after heavy delete/merge cycles
// every lookup would pay for the longest anchor the table ever held.
func (t *metaTable) remove(key []byte) *metaNode {
	h := hashKey(key)
	for b := &t.buckets[h&t.mask]; b != nil; b = b.next {
		for i := 0; i < metaBucketWidth; i++ {
			n := b.nodes[i]
			if n != nil && bytes.Equal(n.key, key) {
				b.nodes[i] = nil
				b.tags[i] = 0
				t.count--
				if len(key) == t.maxLen {
					t.recomputeMaxLen()
				}
				if len(key) == 0 {
					t.root = nil // transient; recreated before publication
				}
				return n
			}
		}
	}
	return nil
}

// recomputeMaxLen rescans the table for the longest stored key. O(items),
// but only runs when the longest anchor is removed — a structural-writer
// path already paying a grace period.
func (t *metaTable) recomputeMaxLen() {
	m := 0
	t.forEach(func(n *metaNode) {
		if len(n.key) > m {
			m = len(n.key)
		}
	})
	t.maxLen = m
}

// grow doubles the bucket array and rehashes every item. Safe because
// tables are only mutated while unobserved.
func (t *metaTable) grow() {
	old := t.buckets
	t.buckets = make([]metaBucket, len(old)*2)
	t.mask = uint32(len(t.buckets) - 1)
	for i := range old {
		for b := &old[i]; b != nil; b = b.next {
			for j := 0; j < metaBucketWidth; j++ {
				if n := b.nodes[j]; n != nil {
					t.insert(hashKey(n.key), n)
				}
			}
		}
	}
}

// forEach visits every item; used by invariant checks and Footprint.
func (t *metaTable) forEach(fn func(*metaNode)) {
	for i := range t.buckets {
		for b := &t.buckets[i]; b != nil; b = b.next {
			for j := 0; j < metaBucketWidth; j++ {
				if b.nodes[j] != nil {
					fn(b.nodes[j])
				}
			}
		}
	}
}

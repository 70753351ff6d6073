package core

import (
	"bytes"
	"errors"
	"fmt"
)

// BulkLoad populates an empty index from already-sorted unique keys,
// building the LeafList directly and the meta tables in one pass — far
// cheaper than N inserts (no per-split grace periods, no incremental
// re-hashing) and it yields ~3/4-full leaves like a fresh B+ tree bulk
// load. vals may be nil (keys stored with nil values) or parallel to keys.
// Keys and values are copied into the index; the caller keeps its buffers.
//
// Anchors are chosen right-to-left: each leaf's anchor is the shortest
// separator from its left neighbour's last key, ⊥-extended against the
// anchor of the leaf to its right, which is already known — so the
// conversion (re-keying) machinery of the incremental path is never
// needed, and a cut that cannot produce a legal anchor simply grows that
// leaf leftward (the bulk equivalent of a fat leaf).
func (w *Wormhole) BulkLoad(keys, vals [][]byte) error {
	// A drained index can still hold empty unmerged leaves, so "empty"
	// here means genuinely fresh: one empty leaf and nothing else.
	if w.count.Load() != 0 || w.head.size() != 0 || w.head.next.Load() != nil {
		return errors.New("wormhole: BulkLoad requires a freshly created index")
	}
	if vals != nil && len(vals) != len(keys) {
		return fmt.Errorf("wormhole: BulkLoad got %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return fmt.Errorf("wormhole: BulkLoad keys not strictly sorted at %d", i)
		}
	}
	if len(keys) == 0 {
		return nil
	}

	target := w.opt.LeafCap * 3 / 4
	if target < 1 {
		target = 1
	}
	// Choose leaf start offsets right-to-left so every anchor can be
	// validated against its successor.
	type span struct{ start int }
	var spans []span // in reverse (rightmost first)
	var anchors [][]byte
	var realLens []int
	nextStored := []byte(nil) // anchor of the leaf to the right
	end := len(keys)
	for end > 0 {
		start := end - target
		if start < 0 {
			start = 0
		}
		var stored []byte
		realLen := 0
		for start > 0 {
			if p := bulkCut(keys[start-1], keys[start], nextStored); p != nil {
				stored, realLen = p.stored, p.realLen
				break
			}
			start-- // no legal separator here: grow the leaf leftward
		}
		if start == 0 {
			stored, realLen = []byte{}, 0 // head leaf: empty anchor
		}
		spans = append(spans, span{start})
		anchors = append(anchors, stored)
		realLens = append(realLens, realLen)
		nextStored = stored
		end = start
	}

	// The head leaf's anchor is conceptually the empty key, but like the
	// incremental path's conversion it must be ⊥-extended so it is not a
	// prefix of the second anchor. If the second anchor is itself all
	// zeros (a §3.3 pathology), absorb that leaf into the head and retry.
	for {
		hi := len(spans) - 1
		headStored := []byte{}
		if hi > 0 {
			next := anchors[hi-1]
			for isPrefix(headStored, next) {
				headStored = append(headStored, 0)
			}
			if isPrefix(next, headStored) {
				spans = append(spans[:hi-1], span{0})
				anchors = append(anchors[:hi-1], nil)
				realLens = append(realLens[:hi-1], 0)
				continue
			}
		}
		anchors[hi], realLens[hi] = headStored, 0
		break
	}

	// Materialize the leaves left-to-right. The head leaf reuses w.head so
	// the existing list invariants (head never replaced) hold.
	var leaves []*leafNode
	bufp := getSorted()
	for i := len(spans) - 1; i >= 0; i-- {
		start := spans[i].start
		stop := len(keys)
		if i > 0 {
			stop = spans[i-1].start
		}
		var l *leafNode
		if len(leaves) == 0 {
			l = w.head
			l.anchor.Store(&anchor{stored: anchors[i], realLen: realLens[i]})
		} else {
			l = newLeafNode(anchor{stored: anchors[i], realLen: realLens[i]})
		}
		// The leaf's records and fences are known up front: size its arena
		// for the suffixes (plus the headroom) and copy them in.
		var hi []byte
		if i > 0 {
			hi = anchors[i-1][:realLens[i-1]]
		}
		pre := fencePrefix(anchors[i][:realLens[i]], hi)
		n := 0
		for j := start; j < stop; j++ {
			n += recSize(len(keys[j])-len(pre), len(valAt(vals, j)))
		}
		a := newArena(pre, withHeadroom(n))
		items := (*bufp)[:0]
		off := int(a.hw.Load())
		for j := start; j < stop; j++ {
			items = append(items, uint32(off>>3))
			off = a.write(off, hashKey(keys[j]), nil, keys[j][len(pre):], valAt(vals, j))
		}
		a.hw.Store(uint64(off))
		l.setSorted(a, items)
		*bufp = items
		if len(leaves) > 0 {
			prev := leaves[len(leaves)-1]
			l.prev.Store(prev)
			prev.next.Store(l)
		}
		leaves = append(leaves, l)
	}
	putSorted(bufp, *bufp)
	w.count.Store(int64(len(keys)))

	t1 := buildMetaTable(leaves)
	t1.version = w.cur.Load().version
	w.cur.Store(t1)
	w.metaMu.Lock()
	w.spare = buildMetaTable(leaves)
	w.metaMu.Unlock()
	return nil
}

// valAt returns vals[j], or nil when vals is nil.
func valAt(vals [][]byte, j int) []byte {
	if vals == nil {
		return nil
	}
	return vals[j]
}

// bulkCut is tryCut without the own-anchor conversion checks: in
// right-to-left bulk construction the predecessor anchor does not exist
// yet, and when it is created its own extension rule guarantees mutual
// prefix-freedom with this one.
func bulkCut(a, b, nextStored []byte) *splitPlan {
	c := lcp(a, b)
	p := b[:c+1]
	stored := p
	for nextStored != nil && isPrefix(stored, nextStored) {
		ext := make([]byte, len(stored)+1)
		copy(ext, stored)
		stored = ext
	}
	if nextStored != nil && isPrefix(nextStored, stored) {
		return nil
	}
	if len(stored) == len(p) {
		stored = cloneBytes(p)
	}
	return &splitPlan{stored: stored, realLen: len(p)}
}

// buildMetaTable constructs a MetaTrieHT for the given left-to-right leaf
// sequence from scratch: one leaf item per anchor, one internal item per
// proper prefix, bitmap bits for every child, and exact subtree boundary
// pointers (leaves are visited in order, so first-seen/last-seen per
// prefix are the leftmost/rightmost).
func buildMetaTable(leaves []*leafNode) *metaTable {
	t := newMetaTable(len(leaves) * 4)
	for _, l := range leaves {
		stored := l.anchor.Load().stored
		t.set(&metaNode{key: stored, leaf: l})
		for pl := 0; pl < len(stored); pl++ {
			prf := stored[:pl]
			node := t.get(hashKey(prf), prf)
			if node == nil {
				// Shares the anchor's bytes, as in applySplit.
				node = &metaNode{key: stored[:pl:pl], leftmost: l}
				t.set(node)
			}
			node.setBit(stored[pl])
			node.rightmost = l
		}
	}
	return t
}

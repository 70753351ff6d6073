package core

// This file implements Algorithm 4 (split and merge) as two halves:
//
//  1. Planning — pure computation of the new anchor, its ⊥-extension, and
//     any re-keying ("conversion") of the split leaf's own anchor. A plan
//     captures every decision that depends on leaf-list state, so that
//  2. Application — applySplit/applyMerge can replay the identical
//     mutation on both MetaTrieHT copies (§2.5): first on the spare table
//     before it is published, then, after a grace period, on the retired
//     table. Both tables are structurally identical when each application
//     starts, and the plan is self-contained, so the replays converge.

// splitPlan describes one leaf split.
type splitPlan struct {
	cut     int    // index in the key-sorted items where the right half starts
	stored  []byte // new anchor, stored form (separator + appended ⊥ tokens)
	realLen int    // length of the separator (real) part
	conv    *conversion
}

// conversion re-keys the split leaf's own anchor when it is a proper prefix
// of the new anchor: the old leaf item moves from `from` to `to` = from +
// ⊥^t (Algorithm 4 lines 15–18, collapsed from one ⊥ per iteration into a
// single step). Only the split leaf's own anchor can ever need this: any
// anchor that is a proper prefix of the new anchor must be the immediate
// predecessor anchor — two distinct prefixes of the same key would be
// prefixes of each other, violating the standing prefix condition.
type conversion struct {
	from []byte
	to   []byte
}

// planSplit chooses a cut point for a full leaf and builds the plan;
// sorted holds l's items in key order (sortedItems). Cut points are tried
// middle-out and the first legal one wins (Algorithm 4 line 3–5). nil
// means no valid cut exists anywhere and the leaf must grow fat (§3.3).
func planSplit(l *leafNode, sorted []uint32) *splitPlan {
	n := len(sorted)
	if n < 2 {
		return nil
	}
	var nextStored []byte
	if nx := l.next.Load(); nx != nil {
		nextStored = nx.anchor.Load().stored
	}
	own := l.anchor.Load().stored
	a := l.arena.Load()
	pre := a.prefix()
	mid := n / 2
	for off := 0; ; off++ {
		hi := mid + off
		lo := mid - off
		ok := false
		if hi >= 1 && hi <= n-1 {
			ok = true
			if p := tryCut(pre, a.sfx(sorted[hi-1]), a.sfx(sorted[hi]), own, nextStored, hi); p != nil {
				return p
			}
		}
		if off > 0 && lo >= 1 && lo <= n-1 {
			ok = true
			if p := tryCut(pre, a.sfx(sorted[lo-1]), a.sfx(sorted[lo]), own, nextStored, lo); p != nil {
				return p
			}
		}
		if !ok {
			return nil
		}
	}
}

// tryCut validates a cut between adjacent sorted keys pre+a < pre+b — the
// leaf's fence prefix and two suffixes — and returns the plan, or nil if
// no legal anchor exists at this position.
//
// The candidate separator is P = b[:lcp(a,b)+1], the shortest prefix of b
// that is strictly greater than a (§2.2's anchor formation rule), written
// out whole behind pre. The ordering condition a < P <= b holds by
// construction. The prefix condition is then enforced on the stored form:
//
//   - against the successor anchor: append ⊥ (0x00) until S is no longer a
//     prefix of it; if that makes the successor a prefix of S instead, the
//     successor is P followed only by zeros and the cut is illegal;
//   - against the leaf's own anchor Q: if Q is a proper prefix of S, plan a
//     conversion Q -> Q + ⊥^t with minimal t; if S is itself Q plus only
//     zeros, no t works and the cut is illegal. These illegal positions are
//     exactly the binary-key pathologies of §3.3.
func tryCut(pre, a, b, own, nextStored []byte, cut int) *splitPlan {
	// Keys are unique, so either a is a proper prefix of b (c == len(a)) or
	// they diverge at c with a[c] < b[c]. Both admit P = b[:c+1]. P is
	// built in stack scratch, and only an accepted anchor is copied out.
	c := lcp(a, b)
	var room [96]byte
	p := append(append(room[:0], pre...), b[:c+1]...)
	stored := p
	for nextStored != nil && isPrefix(stored, nextStored) {
		stored = append(stored, 0)
	}
	if nextStored != nil && isPrefix(nextStored, stored) {
		return nil
	}
	var conv *conversion
	if isPrefix(stored, own) {
		// The new anchor would collide with or be subsumed by the existing
		// anchor's stored key.
		return nil
	}
	if isProperPrefix(own, stored) {
		to := cloneBytes(own)
		for isPrefix(to, stored) {
			to = append(to, 0)
		}
		if isPrefix(stored, to) {
			return nil // stored is own + ⊥^k: no legal re-keying
		}
		conv = &conversion{from: own, to: to}
	}
	return &splitPlan{cut: cut, stored: cloneBytes(stored), realLen: len(p), conv: conv}
}

// executeLeafSplit mutates the LeafList for a planned split: copies the
// upper half of l's records (sorted, the key-sorted refs the plan was made
// from; rewritten to the copies) into a new leaf's arena and the lower
// half into a fresh arena for l, each re-cut against its own, narrower
// fences' prefix, re-keys l's anchor if the plan converted it, and links
// the new leaf after l. It returns the new leaf.
// The caller holds l's write lock and has already bumped l's version, so
// optimistic readers that observe the truncated tag array retry.
//
// The truncation and the relink share one seq bracket on l: a lock-free
// chunk on l validates only against a state with both the full base and
// the old l.next, or the lower half and l.next == newL — never a
// truncated base whose next still skips the moved upper half. newL is
// complete before it becomes reachable: it carries l's bumped version
// and is returned write-locked so the caller can finish the pending
// insert before locked readers enter.
func executeLeafSplit(l *leafNode, sorted []uint32, p *splitPlan) *leafNode {
	src := l.arena.Load()
	lo, hi := sorted[:p.cut], sorted[p.cut:]
	sep := p.stored[:p.realLen]
	rpre := fencePrefix(sep, nextReal(l))
	ra := newArena(rpre, withHeadroom(src.sizeAs(hi, len(rpre))))
	ra.copyIn(src, hi)
	newL := newLeafNode(anchor{stored: p.stored, realLen: p.realLen})
	newL.setSorted(ra, hi)
	newL.version.Store(l.version.Load())
	newL.mu.Lock()
	lpre := fencePrefix(l.anchor.Load().real(), sep)
	la := newArena(lpre, withHeadroom(src.sizeAs(lo, len(lpre))))
	la.copyIn(src, lo)

	l.beginMutate()
	l.setSorted(la, lo)
	if p.conv != nil {
		old := l.anchor.Load()
		l.anchor.Store(&anchor{stored: p.conv.to, realLen: old.realLen})
	}
	linkAfter(l, newL)
	l.endMutate()
	return newL
}

// nextReal returns the real anchor of l's right neighbour, l's upper
// fence; nil for the rightmost leaf.
func nextReal(l *leafNode) []byte {
	if nx := l.next.Load(); nx != nil {
		return nx.anchor.Load().real()
	}
	return nil
}

// linkAfter splices newL into the list immediately after l. Only l's
// bracket covers it (executeLeafSplit): r.prev is stored outside r's. A
// descending chunk on r that captures the old r.prev == l hops to l, whose
// next is now newL, so the hop check (l.next == r) fails and the cursor
// re-seeks; one that captures newL arrives at a complete leaf whose next
// is r.
func linkAfter(l, newL *leafNode) {
	r := l.next.Load()
	newL.prev.Store(l)
	newL.next.Store(r)
	l.next.Store(newL)
	if r != nil {
		r.prev.Store(newL)
	}
}

// applySplit replays a split plan onto one MetaTrieHT copy. oldRight is the
// leaf that followed l before the split (nil if l was last); it is passed
// explicitly because the live list has already been relinked by the time
// the second table is patched.
//
// Boundary-pointer rules for every internal node on the new anchor's prefix
// path (Algorithm 4 lines 22–24, with the pseudocode's left/right swap
// corrected): the subtree now contains newL, so
//
//   - rightmost == l        -> newL  (newL sits immediately right of l)
//   - leftmost  == oldRight -> newL  (newL sits immediately left of it)
func applySplit(t *metaTable, l, newL, oldRight *leafNode, p *splitPlan) {
	if p.conv != nil {
		// Re-key the split leaf's own anchor item. Its new stored key's
		// extra prefixes lie on the new anchor's path and are created by
		// the walk below.
		t.remove(p.conv.from)
		t.set(&metaNode{key: p.conv.to, leaf: l})
	}
	t.set(&metaNode{key: p.stored, leaf: newL})

	s := p.stored
	for pl := 0; pl < len(s); pl++ {
		prf := s[:pl]
		node := t.get(hashKey(prf), prf)
		if node == nil {
			// The item shares the anchor's bytes: stored anchors are never
			// written after the plan clones them, and the clipped capacity
			// keeps an append from writing through.
			node = &metaNode{key: s[:pl:pl]}
			// A brand-new internal node's subtree holds newL, plus l when
			// the prefix lies on the conversion chain (the re-keyed anchor
			// runs through it; past len(conv.to) it has diverged).
			if p.conv != nil && pl >= len(p.conv.from) && pl < len(p.conv.to) {
				node.leftmost, node.rightmost = l, newL
			} else {
				node.leftmost, node.rightmost = newL, newL
			}
			t.set(node)
		} else {
			if node.isLeafItem() {
				// Cannot happen: the only anchor that could be a prefix of
				// s is l's own, and the conversion removed it above.
				panic("wormhole: leaf item on new anchor path")
			}
			if node.rightmost == l {
				node.rightmost = newL
			}
			if oldRight != nil && node.leftmost == oldRight {
				node.leftmost = newL
			}
		}
		node.setBit(s[pl])
		if p.conv != nil && pl >= len(p.conv.from) && pl < len(p.conv.to) {
			// The conversion chain's child token at this depth is ⊥.
			node.setBit(0)
		}
	}
	if len(s) > t.maxLen {
		t.maxLen = len(s)
	}
	if p.conv != nil && len(p.conv.to) > t.maxLen {
		t.maxLen = len(p.conv.to)
	}
}

// mergePlan describes removing victim's anchor after its items moved into
// its left neighbor. left/right are victim's list neighbors at merge time.
type mergePlan struct {
	stored      []byte
	victim      *leafNode
	left, right *leafNode
}

// applyMerge replays a merge plan onto one MetaTrieHT copy (Algorithm 4's
// merge): remove the victim's leaf item, then walk its prefixes bottom-up,
// clearing the child bit when the child item was removed, deleting internal
// nodes whose bitmaps empty out, and redirecting boundary pointers that
// referenced the victim to its surviving neighbors.
func applyMerge(t *metaTable, p *mergePlan) {
	t.remove(p.stored)
	removed := true
	for pl := len(p.stored) - 1; pl >= 0; pl-- {
		prf := p.stored[:pl]
		node := t.get(hashKey(prf), prf)
		if node == nil || node.isLeafItem() {
			panic("wormhole: broken trie path during merge")
		}
		if removed {
			node.clearBit(p.stored[pl])
		}
		if node.bitmapEmpty() {
			t.remove(prf)
			removed = true
			continue
		}
		removed = false
		if node.leftmost == p.victim {
			node.leftmost = p.right
		}
		if node.rightmost == p.victim {
			node.rightmost = p.left
		}
	}
}

// mergeLeaves moves every item of victim into left and unlinks victim.
// Caller holds both write locks and has bumped victim's version, so
// optimistic readers routed to victim through a stale table retry (the
// dead flag catches those routed through any table). Both leaves' records
// are copied into a fresh arena published with left's merged item list,
// re-cut against the prefix of left's wider fences; victim's block and
// arena are left intact for readers still holding them.
func mergeLeaves(left, victim *leafNode) {
	// Every victim key sorts after every left key, so the two key-sorted
	// lists concatenate into left's new one.
	bufp := getSorted()
	merged := sortedItems(left, *bufp)
	nl := len(merged)
	merged = sortedItems(victim, merged)
	la, va := left.arena.Load(), victim.arena.Load()
	pre := fencePrefix(left.anchor.Load().real(), nextReal(victim))
	na := newArena(pre, withHeadroom(la.sizeAs(merged[:nl], len(pre))+va.sizeAs(merged[nl:], len(pre))))
	na.copyIn(la, merged[:nl])
	na.copyIn(va, merged[nl:])

	left.beginMutate()
	victim.beginMutate()
	left.setSorted(na, merged)
	putSorted(bufp, merged)

	victim.dead.Store(true)
	r := victim.next.Load()
	left.next.Store(r)
	if r != nil {
		r.prev.Store(left)
	}
	victim.endMutate()
	left.endMutate()
}

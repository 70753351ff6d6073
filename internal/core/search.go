package core

import "bytes"

// searchLPM finds the longest prefix of key present in the table: Algorithm
// 1's binary search on prefix lengths. It returns the matched item and the
// hash of the matched prefix (needed for the subsequent child probe).
//
// Two of the paper's §3.1 optimizations live here:
//
//   - incremental hashing: the CRC of the confirmed prefix key[:m] is
//     extended by key[m:pl] on each probe instead of rehashing key[:pl]
//     from scratch.
//   - tag matching (optimistic mode): every probe trusts the first 16-bit tag
//     match without comparing keys. Tag misses are exact ("no false
//     negatives"), so the binary search's upper boundary is always sound;
//     only the lower boundary can be optimistic. One full comparison of the
//     final candidate therefore certifies the whole search, and on a
//     mismatch the search reruns with exact probes.
func (w *Wormhole) searchLPM(t *metaTable, key []byte) (*metaNode, uint32) {
	if node, h, ok := w.lpmPass(t, key, true); ok {
		return node, h
	}
	// Optimistic pass hit a false-positive tag; redo with verification.
	node, h, _ := w.lpmPass(t, key, false)
	return node, h
}

// maxEagerPrefix bounds the stack-resident prefix-hash array of the
// memory-parallel LPM pass; longer keys fall back to the lazy pass.
const maxEagerPrefix = 64

func (w *Wormhole) lpmPass(t *metaTable, key []byte, optimistic bool) (*metaNode, uint32, bool) {
	maxl := min(len(key), t.maxLen)
	if maxl <= maxEagerPrefix {
		return w.lpmPassEager(t, key, maxl, optimistic)
	}
	m, n := 0, maxl+1
	var crcM uint32
	nodeM := t.root // the root item always exists in a published table
	for m+1 < n {
		pl := (m + n) / 2
		h := hashExtend(crcM, key[m:pl])
		var nd *metaNode
		if optimistic {
			nd = t.getTagOnly(h)
		} else {
			nd = t.get(h, key[:pl])
		}
		if nd != nil {
			m, crcM, nodeM = pl, h, nd
		} else {
			n = pl
		}
	}
	if optimistic && !bytes.Equal(nodeM.key, key[:m]) {
		return nil, 0, false
	}
	return nodeM, crcM, true
}

// lpmPassEager is the memory-parallel variant of the prefix binary
// search, used whenever the key fits the stack array. The lazy pass above extends the confirmed prefix's CRC on each
// probe, which chains every probe's *address* through the previous
// probe's *data* — the CPU cannot begin fetching probe k+1's bucket
// until probe k's cache miss resolves, so the search costs log2(maxLen)
// serialized memory latencies. Here the incremental CRC is instead run
// eagerly over the key once (the same table steps in total), giving
// every candidate depth's bucket address up front; probe addresses then
// depend only on branch outcomes, and the buckets of the first two
// search levels are touched explicitly before the loop so their misses
// overlap. This is the memory-level-parallelism argument of the Cuckoo
// Trie applied to Wormhole's Algorithm 1.
func (w *Wormhole) lpmPassEager(t *metaTable, key []byte, maxl int, optimistic bool) (*metaNode, uint32, bool) {
	var hs [maxEagerPrefix + 1]uint32
	prefixHashes(&hs, key[:maxl])
	m, n := 0, maxl+1
	nodeM := t.root // the root item always exists in a published table
	if n > 2 {
		if t.warmSearchLevels(&hs, n) == 0xFFFF {
			nodeM = t.root
		}
	}
	for m+1 < n {
		pl := (m + n) / 2
		var nd *metaNode
		if optimistic {
			nd = t.getTagOnly(hs[pl])
		} else {
			nd = t.get(hs[pl], key[:pl])
		}
		if nd != nil {
			m, nodeM = pl, nd
		} else {
			n = pl
		}
	}
	if optimistic && !bytes.Equal(nodeM.key, key[:m]) {
		return nil, 0, false
	}
	return nodeM, hs[m], true
}

// prefixHashes sets hs[i] to the CRC32-C of p[:i] for every i up to
// len(p) (at most maxEagerPrefix): §3.1's incremental hashing, one table
// step per byte, run ahead of the search instead of inside it.
func prefixHashes(hs *[maxEagerPrefix + 1]uint32, p []byte) {
	out := hs[1 : len(p)+1]
	p = p[:len(out)]
	c := ^uint32(0)
	for i, b := range p {
		c = crcTable[byte(c)^b] ^ (c >> 8)
		out[i] = ^c
	}
	hs[0] = 0
}

// warmSearchLevels touches the buckets of the first three binary-search
// levels of a prefix search whose upper bound is n (the level-1 probe,
// both level-2 candidates, all four level-3 candidates): seven
// independent loads the memory system runs concurrently, where the
// search loop alone would serialize them behind branch resolution.
// Duplicate depths just reload a hot line. The returned tag sum must
// feed a benign branch in the caller so the loads stay live. The batched
// read pipeline does not warm: its lanes' probes already overlap one
// another, and there the four untaken candidates' lines cost more than
// the latency they hide.
func (t *metaTable) warmSearchLevels(hs *[maxEagerPrefix + 1]uint32, n int) uint16 {
	p1 := n / 2
	p2a, p2b := p1/2, (p1+n)/2
	return t.buckets[hs[p1]&t.mask].tags[0] +
		t.buckets[hs[p2a]&t.mask].tags[0] +
		t.buckets[hs[p2b]&t.mask].tags[0] +
		t.buckets[hs[p2a/2]&t.mask].tags[0] +
		t.buckets[hs[(p2a+p1)/2]&t.mask].tags[0] +
		t.buckets[hs[(p1+p2b)/2]&t.mask].tags[0] +
		t.buckets[hs[(p2b+n)/2]&t.mask].tags[0]
}

// searchMeta resolves key to its target leaf — the leaf whose real anchor
// K1 and successor anchor K2 satisfy K1 <= key < K2 (Algorithm 3's
// searchTrieHT). All anchor comparisons use the real (un-⊥-extended) form.
func (w *Wormhole) searchMeta(t *metaTable, key []byte) *leafNode {
	node, h := w.searchLPM(t, key)
	return w.leafFromLPM(t, key, node, h)
}

// leafFromLPM finishes Algorithm 3 given an already-resolved longest
// prefix match: node is the LPM item and h the hash of its stored key. It
// runs the resolution's steps in sequence: lpmTarget, then (unless the LPM
// item alone decides the leaf) the child probe, childLeaf and, for a right
// sibling, prevLeaf. The batched read pipeline runs the same steps one
// round at a time across its lanes, so each lane's dependent misses
// overlap the other lanes'.
func (w *Wormhole) leafFromLPM(t *metaTable, key []byte, node *metaNode, h uint32) *leafNode {
	l, tok, right := lpmTarget(key, node)
	if l != nil {
		return l
	}
	l = childLeaf(t.getChild(h, node.key, tok), right)
	if right {
		return prevLeaf(l)
	}
	return l
}

// lpmTarget is the first step after the LPM: the target leaf when the LPM
// item decides it alone, or else the sibling token whose child item leads
// to it and whether that sibling lies to the right of the key.
func lpmTarget(key []byte, node *metaNode) (l *leafNode, tok byte, right bool) {
	if node.isLeafItem() {
		// The stored anchor is a prefix of the key, so by the prefix
		// condition it is the unique such anchor and its leaf is the target.
		return node.leaf, 0, false
	}
	if len(node.key) == len(key) {
		// The key was consumed at an internal node: every anchor in this
		// subtree strictly extends the key's stored form. The subtree's
		// leftmost leaf is the first candidate; if the key sorts before
		// even that leaf's real anchor, the target is one to the left.
		lm := node.leftmost
		if bytes.Compare(key, lm.anchor.Load().real()) < 0 {
			return prevLeaf(lm), 0, false
		}
		return lm, 0, false
	}
	// First unmatched token. The LPM is maximal, so this child bit is clear
	// and the bitmap yields an immediate sibling on at least one side.
	missing := key[len(node.key)]
	if sib, ok := node.leftSibling(missing); ok {
		return nil, sib, false
	}
	sib, _ := node.rightSibling(missing)
	return nil, sib, true
}

// childLeaf is the step after the child probe: the leaf the sibling child
// item leads to. A left sibling's subtree ends just below the key, so its
// last leaf is the target; a right sibling's subtree starts just above
// it, so the target is its first leaf's left neighbour (prevLeaf).
func childLeaf(child *metaNode, right bool) *leafNode {
	if child.isLeafItem() {
		return child.leaf
	}
	if right {
		return child.leftmost
	}
	return child.rightmost
}

// prevLeaf returns lm's left neighbour, or lm itself at the head of the
// LeafList.
func prevLeaf(lm *leafNode) *leafNode {
	if p := lm.prev.Load(); p != nil {
		return p
	}
	return lm
}

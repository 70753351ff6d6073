package core

import (
	"bytes"
	"fmt"
)

// CheckInvariants validates the full structural correctness of the index
// and returns the first violation found, or nil. It takes no locks, so run
// it only while the index is quiescent (tests do). Checked properties:
//
//   - LeafList ordering: stored anchors strictly increasing, adjacent-pair
//     prefix-freedom (which, for sorted keys, implies global
//     prefix-freedom), real anchors non-decreasing leaf spans;
//   - leaf spans: real(anchor) <= every key < real(next anchor), and the
//     arena's prefix exactly the fences' longest common prefix;
//   - leaf internals: the published tag array strictly (hash, key)-ordered,
//     every base and tail entry a distinct record, whole (suffix and
//     current value) below its arena's high-water mark, with the hash of
//     its whole key (prefix and suffix), the
//     arena's live-byte count matching its records, the tail within
//     tagTailMax, the key-sorted order view a strictly key-ordered
//     permutation of the base, every tail merge position exact, the
//     merged item list strictly key-ordered (all keys unique), the seqlock
//     word even (no writer abandoned mid-section);
//   - MetaTrieHT completeness: leaf item per anchor, internal item per
//     proper prefix, no extras, bitmap bits exactly matching existing
//     children, leftmost/rightmost equal to the true subtree boundaries;
//   - the spare table structurally identical to the published one;
//   - the key count matching Count().
func (w *Wormhole) CheckInvariants() error {
	if err := w.checkLeafList(); err != nil {
		return err
	}
	t := w.cur.Load()
	if err := w.checkTable(t); err != nil {
		return fmt.Errorf("published table: %w", err)
	}
	w.metaMu.Lock()
	sp := w.spare
	w.metaMu.Unlock()
	if err := w.checkTable(sp); err != nil {
		return fmt.Errorf("spare table: %w", err)
	}
	return tablesIdentical(t, sp)
}

func (w *Wormhole) checkLeafList() error {
	var total int64
	var prevLeaf *leafNode
	for l := w.head; l != nil; l = l.next.Load() {
		a := l.anchor.Load()
		if l.dead.Load() {
			return fmt.Errorf("dead leaf %q still linked", a.stored)
		}
		if l.seq.Load()&1 != 0 {
			return fmt.Errorf("leaf %q seqlock left odd (%d)", a.stored, l.seq.Load())
		}
		if l.prev.Load() != prevLeaf {
			return fmt.Errorf("leaf %q has wrong prev pointer", a.stored)
		}
		if a.realLen > len(a.stored) {
			return fmt.Errorf("anchor %q realLen %d out of range", a.stored, a.realLen)
		}
		for _, z := range a.stored[a.realLen:] {
			if z != 0 {
				return fmt.Errorf("anchor %q extension contains non-⊥ byte", a.stored)
			}
		}
		if prevLeaf != nil {
			pa := prevLeaf.anchor.Load()
			if bytes.Compare(pa.stored, a.stored) >= 0 {
				return fmt.Errorf("stored anchors not increasing: %q >= %q", pa.stored, a.stored)
			}
			if isPrefix(pa.stored, a.stored) || isPrefix(a.stored, pa.stored) {
				return fmt.Errorf("anchors violate prefix condition: %q / %q", pa.stored, a.stored)
			}
			if bytes.Compare(pa.real(), a.real()) >= 0 {
				return fmt.Errorf("real anchors not increasing: %q >= %q", pa.real(), a.real())
			}
		}
		var nextReal []byte
		if nx := l.next.Load(); nx != nil {
			nextReal = nx.anchor.Load().real()
		}
		tags := l.tags()
		if len(tags.tail) > tagTailMax {
			return fmt.Errorf("tag array tail overgrown in leaf %q: %d > %d",
				a.stored, len(tags.tail), tagTailMax)
		}
		ar := l.arena.Load()
		hw := int(ar.hw.Load())
		if hw > len(ar.buf) || hw < align8(ar.plen) {
			return fmt.Errorf("leaf %q arena high-water mark %d outside [%d, %d]", a.stored, hw, align8(ar.plen), len(ar.buf))
		}
		// The arena's prefix is exactly what the leaf's fences share, so
		// it holds for every key the leaf can own and saves all it can.
		if want := fencePrefix(a.real(), nextReal); !bytes.Equal(ar.prefix(), want) {
			return fmt.Errorf("leaf %q arena prefix %q, its fences share %q", a.stored, ar.prefix(), want)
		}
		members := make(map[uint32]bool, tags.size())
		live := 0
		check := func(e tagEnt, region string, i int) error {
			// Every entry references its own record, whole below the
			// high-water mark: no entry twice across base and tail.
			if members[e.ref] {
				return fmt.Errorf("tag %s entry %d of leaf %q is a duplicate item", region, i, a.stored)
			}
			members[e.ref] = true
			if _, ok := ar.peekSfx(e.ref); !ok {
				return fmt.Errorf("tag %s entry %d of leaf %q: record %d not below the high-water mark",
					region, i, a.stored, e.ref)
			}
			key := ar.appendKey(nil, e.ref)
			if v := ar.val(e.ref); int(v>>32)<<3+align8(int(uint32(v))) > hw {
				return fmt.Errorf("value of key %q not below the high-water mark", key)
			}
			live += ar.size(e.ref)
			// The stored hash covers the whole key, prefix and suffix.
			if e.hash != ar.hash(e.ref) || e.hash != hashKey(key) {
				return fmt.Errorf("stale hash for key %q", key)
			}
			if bytes.Compare(key, a.real()) < 0 {
				return fmt.Errorf("key %q below anchor %q", key, a.real())
			}
			if nextReal != nil && bytes.Compare(key, nextReal) >= 0 {
				return fmt.Errorf("key %q not below next anchor %q", key, nextReal)
			}
			return nil
		}
		for i, e := range tags.base {
			if err := check(e, "base", i); err != nil {
				return err
			}
			if i > 0 {
				p := tags.base[i-1]
				if p.hash > e.hash || (p.hash == e.hash && bytes.Compare(ar.sfx(p.ref), ar.sfx(e.ref)) >= 0) {
					return fmt.Errorf("tag array base out of (hash, key) order in leaf %q", a.stored)
				}
			}
		}
		for i, e := range tags.tail {
			if err := check(e, "tail", i); err != nil {
				return err
			}
		}
		if live != ar.live {
			return fmt.Errorf("leaf %q arena accounts %d live bytes, its records hold %d", a.stored, ar.live, live)
		}
		// The published key-sorted view (the scan path's snapshot) must be
		// a strictly key-increasing permutation of the base entries, and
		// every tail slot's merge position must match a fresh search of
		// that view, so a refactor cannot silently desynchronize what
		// lock-free scans walk from what lookups see.
		if b := l.base.Load(); int(b.n) != int(l.baseN.Load()) {
			return fmt.Errorf("leaf %q publishes %d base entries in a %d-entry block", a.stored, l.baseN.Load(), b.n)
		}
		baseItems, ord := l.sortedView()
		if ord.len() != len(tags.base) {
			return fmt.Errorf("sorted view size mismatch in leaf %q: %d entries, base has %d",
				a.stored, ord.len(), len(tags.base))
		}
		seenIdx := make([]bool, ord.len())
		for i := 0; i < ord.len(); i++ {
			ix := ord.at(i)
			if ix < 0 || ix >= ord.len() || seenIdx[ix] {
				return fmt.Errorf("sorted view entry %d of leaf %q has bad or duplicate index %d",
					i, a.stored, ix)
			}
			seenIdx[ix] = true // each base item exactly once
			if i > 0 && bytes.Compare(ar.sfx(baseItems[ord.at(i-1)].ref), ar.sfx(baseItems[ix].ref)) >= 0 {
				return fmt.Errorf("sorted view out of key order in leaf %q at %d", a.stored, i)
			}
		}
		tl := int(l.tailLen.Load())
		var prevPos int32 = -1
		var prevKey []byte
		for i := 0; i < tl && i < tagTailMax; i++ {
			key := ar.sfx(l.tailItem[i].Load())
			pos := l.tailPos[i].Load()
			if want := lowerBoundIdx(ar, baseItems, ord, key, true); int(pos) != want {
				return fmt.Errorf("tail slot %d of leaf %q has merge position %d, want %d",
					i, a.stored, pos, want)
			}
			if pos < prevPos || (pos == prevPos && bytes.Compare(prevKey, key) >= 0) {
				return fmt.Errorf("tail slots of leaf %q out of (pos, key) order at %d", a.stored, i)
			}
			prevPos, prevKey = pos, key
		}
		// The merged key-sorted list — what scans, splits, merges and
		// compactions walk — must be strictly increasing, which also makes
		// every key unique.
		sorted := sortedItems(l, nil)
		for i := 1; i < len(sorted); i++ {
			if bytes.Compare(ar.sfx(sorted[i-1]), ar.sfx(sorted[i])) >= 0 {
				return fmt.Errorf("leaf %q items out of key order or duplicated at %d", a.stored, i)
			}
		}
		total += int64(len(sorted))
		prevLeaf = l
	}
	if total != w.count.Load() {
		return fmt.Errorf("count mismatch: leaves hold %d, Count()=%d", total, w.count.Load())
	}
	return nil
}

func (w *Wormhole) checkTable(t *metaTable) error {
	// Expected item set, computed from the LeafList.
	type exp struct {
		leaf                *leafNode
		leftmost, rightmost *leafNode
		children            map[byte]bool
	}
	items := make(map[string]*exp)
	expMaxLen := 0
	for l := w.head; l != nil; l = l.next.Load() {
		stored := l.anchor.Load().stored
		if len(stored) > expMaxLen {
			expMaxLen = len(stored)
		}
		ks := string(stored)
		if e, ok := items[ks]; ok && e.leaf != nil {
			return fmt.Errorf("two leaves share stored anchor %q", stored)
		}
		if items[ks] == nil {
			items[ks] = &exp{}
		}
		items[ks].leaf = l
		for pl := 0; pl < len(stored); pl++ {
			ps := string(stored[:pl])
			e := items[ps]
			if e == nil {
				e = &exp{children: map[byte]bool{}}
				items[ps] = e
			}
			if e.children == nil {
				e.children = map[byte]bool{}
			}
			e.children[stored[pl]] = true
			if e.leftmost == nil {
				e.leftmost = l // leaves visited left to right
			}
			e.rightmost = l
		}
		if len(stored) > t.maxLen {
			return fmt.Errorf("maxLen %d below anchor %q", t.maxLen, stored)
		}
	}
	if t.maxLen != expMaxLen {
		return fmt.Errorf("maxLen %d, longest stored anchor is %d", t.maxLen, expMaxLen)
	}
	if t.root == nil || t.root != t.get(0, nil) {
		return fmt.Errorf("cached root item does not match the stored empty-key item")
	}
	count := 0
	var err error
	t.forEach(func(n *metaNode) {
		count++
		if err != nil {
			return
		}
		e := items[string(n.key)]
		if e == nil {
			err = fmt.Errorf("unexpected table item %q", n.key)
			return
		}
		if n.isLeafItem() {
			if e.leaf == nil || e.leaf != n.leaf {
				err = fmt.Errorf("leaf item %q points at wrong leaf", n.key)
				return
			}
			if e.children != nil {
				err = fmt.Errorf("item %q is both leaf and internal", n.key)
				return
			}
			return
		}
		if e.children == nil {
			err = fmt.Errorf("item %q should be a leaf item", n.key)
			return
		}
		for tok := 0; tok < 256; tok++ {
			want := e.children[byte(tok)]
			if got := n.hasBit(byte(tok)); got != want {
				err = fmt.Errorf("item %q bitmap[%d]=%v want %v", n.key, tok, got, want)
				return
			}
		}
		if n.leftmost != e.leftmost || n.rightmost != e.rightmost {
			err = fmt.Errorf("item %q boundary pointers wrong", n.key)
		}
	})
	if err != nil {
		return err
	}
	if count != len(items) {
		return fmt.Errorf("table has %d items, expected %d", count, len(items))
	}
	if count != t.count {
		return fmt.Errorf("table count field %d, actual %d", t.count, count)
	}
	return nil
}

// tablesIdentical verifies the two MetaTrieHT copies agree item-for-item.
func tablesIdentical(a, b *metaTable) error {
	if a.count != b.count {
		return fmt.Errorf("table counts differ: %d vs %d", a.count, b.count)
	}
	var err error
	a.forEach(func(n *metaNode) {
		if err != nil {
			return
		}
		m := b.get(hashKey(n.key), n.key)
		if m == nil {
			err = fmt.Errorf("item %q missing from twin table", n.key)
			return
		}
		if n.leaf != m.leaf || n.bitmap != m.bitmap ||
			n.leftmost != m.leftmost || n.rightmost != m.rightmost {
			err = fmt.Errorf("item %q differs between tables", n.key)
		}
	})
	return err
}

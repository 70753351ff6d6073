package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// insertKey inserts key with value "v" into l.
func insertKey(l *leafNode, key string) {
	l.insert(hashKey([]byte(key)), []byte(key), []byte("v"))
}

// leafKey returns the whole key of l's record r.
func leafKey(l *leafNode, r uint32) []byte { return l.arena.Load().appendKey(nil, r) }

func TestLeafInsertFindRemove(t *testing.T) {
	l := newLeafNode(anchor{stored: []byte{}})
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, k := range keys {
		insertKey(l, k)
	}
	for _, k := range keys {
		_, it := l.find(hashKey([]byte(k)), []byte(k))
		if it == noRef || string(leafKey(l, it)) != k {
			t.Fatalf("find(%q) failed", k)
		}
	}
	if _, it := l.find(hashKey([]byte("zulu")), []byte("zulu")); it != noRef {
		t.Fatalf("find(zulu) should miss")
	}
	_, it := l.find(hashKey([]byte("bravo")), []byte("bravo"))
	l.remove(it)
	if _, it := l.find(hashKey([]byte("bravo")), []byte("bravo")); it != noRef {
		t.Fatal("bravo still findable after remove")
	}
	if l.size() != 4 || l.tags().size() != 4 {
		t.Fatalf("size %d / byHash %d after remove", l.size(), l.tags().size())
	}
}

// TestLeafSortedItems checks the leaf's one item list: after ascending,
// out-of-order and enough inserts to fold the tail into the base, the
// order view merged with the tail yields every item exactly once in key
// order, and the hash index still finds each.
func TestLeafSortedItems(t *testing.T) {
	l := newLeafNode(anchor{stored: []byte{}})
	for i := 0; i < 5; i++ {
		insertKey(l, fmt.Sprintf("a%d", i))
	}
	insertKey(l, "a0x")
	insertKey(l, "a00")
	for i := 0; i < tagTailMax+3; i++ {
		insertKey(l, fmt.Sprintf("z%02d", (i*7)%(tagTailMax+3)))
	}
	if l.baseN.Load() == 0 || l.tailLen.Load() == 0 {
		t.Fatalf("want items in both base and tail, have %d/%d", l.baseN.Load(), l.tailLen.Load())
	}
	items := sortedItems(l, nil)
	if len(items) != l.size() {
		t.Fatalf("sortedItems returned %d items, leaf holds %d", len(items), l.size())
	}
	for i := 1; i < len(items); i++ {
		if bytes.Compare(leafKey(l, items[i-1]), leafKey(l, items[i])) >= 0 {
			t.Fatalf("items out of key order at %d", i)
		}
	}
	for _, it := range items {
		k := leafKey(l, it)
		if _, f := l.find(hashKey(k), k); f != it {
			t.Fatalf("hash index lost %q", k)
		}
	}
}

// TestLeafHashPosQuick property-tests the tag-array search: for random key
// sets, every present key is found from its speculative position, and
// misses return the correct insertion position.
func TestLeafHashPosQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%100) + 1
		l := newLeafNode(anchor{stored: []byte{}})
		present := map[string]bool{}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("q%03d", r.Intn(500))
			if present[k] {
				continue
			}
			present[k] = true
			insertKey(l, k)
		}
		l.setSorted(l.arena.Load(), sortedItems(l, nil)) // fold the tail so tagPos sees every item
		base := l.tags().base
		for k := range present {
			h := hashKey([]byte(k))
			i := tagPos(base, h, tagSpec(h, len(base)))
			found := false
			for ; i < len(base) && base[i].hash == h; i++ {
				if string(leafKey(l, base[i].ref)) == k {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Misses: tagPos must return the first index with hash >= h.
		for i := 0; i < 20; i++ {
			k := []byte(fmt.Sprintf("miss%04d", r.Intn(10000)))
			if present[string(k)] {
				continue
			}
			h := hashKey(k)
			pos := tagPos(base, h, tagSpec(h, len(base)))
			if pos > 0 && base[pos-1].hash >= h {
				return false
			}
			if pos < len(base) && base[pos].hash < h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafLowerBound(t *testing.T) {
	l := newLeafNode(anchor{stored: []byte{}})
	for _, k := range []string{"b", "d", "f"} {
		insertKey(l, k)
	}
	l.setSorted(l.arena.Load(), sortedItems(l, nil))
	items, order := l.sortedView()
	cases := []struct {
		k                string
		atLeast, greater int
	}{
		{"a", 0, 0}, {"b", 0, 1}, {"c", 1, 1}, {"f", 2, 3}, {"g", 3, 3},
	}
	for _, c := range cases {
		if got := lowerBoundIdx(l.arena.Load(), items, order, []byte(c.k), true); got != c.atLeast {
			t.Errorf("lowerBoundIdx(%q, incl) = %d, want %d", c.k, got, c.atLeast)
		}
		if got := lowerBoundIdx(l.arena.Load(), items, order, []byte(c.k), false); got != c.greater {
			t.Errorf("lowerBoundIdx(%q, excl) = %d, want %d", c.k, got, c.greater)
		}
	}
}

func TestMergeLeavesKeepsOrder(t *testing.T) {
	a := newLeafNode(anchor{stored: []byte{}})
	b := newLeafNode(anchor{stored: []byte("m"), realLen: 1})
	for _, k := range []string{"a1", "a2", "a3"} {
		insertKey(a, k)
	}
	for _, k := range []string{"m1", "m2"} {
		insertKey(b, k)
	}
	mergeLeaves(a, b)
	if !b.dead.Load() {
		t.Fatal("victim not marked dead")
	}
	if a.size() != 5 || a.tags().size() != 5 {
		t.Fatalf("merged sizes wrong: %d/%d", a.size(), a.tags().size())
	}
	var keys []string
	for _, it := range sortedItems(a, nil) {
		keys = append(keys, string(leafKey(a, it)))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("merged items out of key order: %q", keys)
	}
	var hs []uint32
	for _, it := range a.tags().base {
		hs = append(hs, it.hash)
	}
	if len(hs) != 5 {
		t.Fatal("merged snapshot should be fully folded into the base")
	}
	if !sort.SliceIsSorted(hs, func(i, j int) bool { return hs[i] < hs[j] }) {
		t.Fatal("merged tag base not hash-sorted")
	}
}

func TestKeyHelpers(t *testing.T) {
	if lcp([]byte("abc"), []byte("abd")) != 2 {
		t.Fatal("lcp")
	}
	if lcp([]byte("ab"), []byte("ab")) != 2 {
		t.Fatal("lcp equal")
	}
	if lcp([]byte(""), []byte("x")) != 0 {
		t.Fatal("lcp empty")
	}
	if !isPrefix([]byte("ab"), []byte("ab")) || !isPrefix([]byte(""), []byte("z")) {
		t.Fatal("isPrefix")
	}
	if isPrefix([]byte("abc"), []byte("ab")) {
		t.Fatal("isPrefix long")
	}
	if isProperPrefix([]byte("ab"), []byte("ab")) || !isProperPrefix([]byte("a"), []byte("ab")) {
		t.Fatal("isProperPrefix")
	}
	if !equalWithSuffixByte([]byte("abz"), []byte("ab"), 'z') ||
		equalWithSuffixByte([]byte("abz"), []byte("ab"), 'y') {
		t.Fatal("equalWithSuffixByte")
	}
}

func TestHashIncremental(t *testing.T) {
	key := []byte("wormhole-incremental-hash")
	for cut := 0; cut <= len(key); cut++ {
		h := hashExtend(hashKey(key[:cut]), key[cut:])
		if h != hashKey(key) {
			t.Fatalf("hashExtend at cut %d mismatch", cut)
		}
	}
}

// TestTagBlockStaleCount pairs tag blocks of every shape — the shared
// empty block, byte and int32 key orders, sizes on both sides of the
// default leaf — with published counts from 0 to 300 past their own, as a
// lock-free reader racing a fold can. Every view must stay inside the
// block (under -race, checkptr vets the unsafe arithmetic too) and hold
// at most the block's entries, and a search may miss but never return a
// ref that is not the key's.
func TestTagBlockStaleCount(t *testing.T) {
	for _, size := range []int{0, 1, 15, 64, 96, 128, 255, 256, 300} {
		l := newLeafNode(anchor{stored: []byte{}})
		keys := make([][]byte, size)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key%05d", i*7919%100000))
			l.insert(hashKey(keys[i]), keys[i], []byte("v"))
		}
		l.setSorted(l.arena.Load(), sortedItems(l, nil))
		b := l.base.Load()
		if int(b.n) != size || (size == 0 && b != emptyTagBlock) {
			t.Fatalf("a %d-key leaf published a %d-entry block", size, b.n)
		}
		probes := append([][]byte{[]byte("absent")}, keys...)
		for n := 0; n <= size+300; n++ {
			l.baseN.Store(int32(n))
			if got := len(b.view(n)); got != min(n, size) {
				t.Fatalf("block of %d: view(%d) holds %d entries", size, n, got)
			}
			ents, ord := b.sortedView(n)
			if len(ents) != size || ord.len() != min(n, size) {
				t.Fatalf("block of %d: sortedView(%d) holds %d entries and %d order slots", size, n, len(ents), ord.len())
			}
			for k := 0; k < ord.len(); k++ {
				_ = ents[ord.at(k)]
			}
			for _, k := range probes {
				h := hashKey(k)
				b.touch(h, n)
				a, r := l.find(h, k)
				if r != noRef && !a.holds(r, k) {
					t.Fatalf("block of %d, count %d: find(%q) returned another key's ref", size, n, k)
				}
				if n == size && (r == noRef) != (string(k) == "absent") {
					t.Fatalf("block of %d: find(%q) = %d at the exact count", size, k, r)
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSiblings(t *testing.T) {
	n := &metaNode{}
	for _, tok := range []byte{3, 64, 130, 255} {
		n.setBit(tok)
	}
	cases := []struct {
		tok   byte
		left  int // -1 = none
		right int
	}{
		{0, -1, 3}, {3, -1, 64}, {4, 3, 64}, {63, 3, 64}, {64, 3, 130},
		{100, 64, 130}, {130, 64, 255}, {200, 130, 255}, {255, 130, -1},
	}
	for _, c := range cases {
		l, lok := n.leftSibling(c.tok)
		if c.left == -1 {
			if lok {
				t.Errorf("leftSibling(%d) = %d, want none", c.tok, l)
			}
		} else if !lok || int(l) != c.left {
			t.Errorf("leftSibling(%d) = %d,%v want %d", c.tok, l, lok, c.left)
		}
		r, rok := n.rightSibling(c.tok)
		if c.right == -1 {
			if rok {
				t.Errorf("rightSibling(%d) = %d, want none", c.tok, r)
			}
		} else if !rok || int(r) != c.right {
			t.Errorf("rightSibling(%d) = %d,%v want %d", c.tok, r, rok, c.right)
		}
	}
	n.clearBit(64)
	if n.hasBit(64) {
		t.Fatal("clearBit failed")
	}
	m := &metaNode{}
	if !m.bitmapEmpty() {
		t.Fatal("fresh bitmap not empty")
	}
	m.setBit(0)
	if m.bitmapEmpty() {
		t.Fatal("bitmap with bit 0 reported empty")
	}
}

// TestBitmapSiblingsQuick cross-checks the word-level scans against a naive
// loop for random bitmaps.
func TestBitmapSiblingsQuick(t *testing.T) {
	f := func(seed int64, tok byte) bool {
		r := rand.New(rand.NewSource(seed))
		n := &metaNode{}
		set := map[int]bool{}
		for i := 0; i < 20; i++ {
			b := r.Intn(256)
			n.setBit(byte(b))
			set[b] = true
		}
		wantL, wantLok := 0, false
		for b := int(tok) - 1; b >= 0; b-- {
			if set[b] {
				wantL, wantLok = b, true
				break
			}
		}
		wantR, wantRok := 0, false
		for b := int(tok) + 1; b < 256; b++ {
			if set[b] {
				wantR, wantRok = b, true
				break
			}
		}
		l, lok := n.leftSibling(tok)
		rr, rok := n.rightSibling(tok)
		return lok == wantLok && (!lok || int(l) == wantL) &&
			rok == wantRok && (!rok || int(rr) == wantR)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaTableBasics(t *testing.T) {
	tb := newMetaTable(8)
	leaf := newLeafNode(anchor{})
	keys := []string{"", "a", "ab", "abc", "b", "xyz"}
	for _, k := range keys {
		tb.set(&metaNode{key: []byte(k), leaf: leaf})
	}
	if tb.count != len(keys) {
		t.Fatalf("count = %d", tb.count)
	}
	if tb.maxLen != 3 {
		t.Fatalf("maxLen = %d, want 3", tb.maxLen)
	}
	for _, k := range keys {
		if n := tb.get(hashKey([]byte(k)), []byte(k)); n == nil || string(n.key) != k {
			t.Fatalf("get(%q) failed", k)
		}
	}
	if tb.get(hashKey([]byte("nope")), []byte("nope")) != nil {
		t.Fatal("get(nope) should miss")
	}
	// getChild finds "ab" from "a" + 'b'.
	parent := []byte("a")
	if n := tb.getChild(hashKey(parent), parent, 'b'); n == nil || string(n.key) != "ab" {
		t.Fatal("getChild failed")
	}
	if tb.getChild(hashKey(parent), parent, 'z') != nil {
		t.Fatal("getChild(az) should miss")
	}
	if n := tb.remove([]byte("ab")); n == nil {
		t.Fatal("remove failed")
	}
	if tb.get(hashKey([]byte("ab")), []byte("ab")) != nil {
		t.Fatal("removed key still present")
	}
	if tb.count != len(keys)-1 {
		t.Fatalf("count after remove = %d", tb.count)
	}
}

func TestMetaTableGrowth(t *testing.T) {
	tb := newMetaTable(8)
	leaf := newLeafNode(anchor{})
	const n = 5000
	for i := 0; i < n; i++ {
		tb.set(&metaNode{key: []byte(fmt.Sprintf("grow-%06d", i)), leaf: leaf})
	}
	if len(tb.buckets) <= 8 {
		t.Fatal("table never grew")
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("grow-%06d", i))
		if tb.get(hashKey(k), k) == nil {
			t.Fatalf("lost %q after growth", k)
		}
	}
	seen := 0
	tb.forEach(func(*metaNode) { seen++ })
	if seen != n {
		t.Fatalf("forEach visited %d, want %d", seen, n)
	}
}

func TestMetaTableOverflowChains(t *testing.T) {
	// Tiny table, no growth until count > buckets*6: with 8 buckets that is
	// 48 items in 8 buckets — overflow chains must engage correctly.
	tb := newMetaTable(1) // rounds up to 8
	leaf := newLeafNode(anchor{})
	for i := 0; i < 48; i++ {
		tb.set(&metaNode{key: []byte{byte(i)}, leaf: leaf})
	}
	for i := 0; i < 48; i++ {
		k := []byte{byte(i)}
		if tb.get(hashKey(k), k) == nil {
			t.Fatalf("lost key %d in overflow chain", i)
		}
	}
}

func TestGetTagOnlyFalsePositiveIsPossibleButGetIsExact(t *testing.T) {
	tb := newMetaTable(8)
	leaf := newLeafNode(anchor{})
	// Insert many keys; getTagOnly may confuse same-tag keys, get must not.
	for i := 0; i < 2000; i++ {
		tb.set(&metaNode{key: []byte(fmt.Sprintf("t%05d", i)), leaf: leaf})
	}
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("t%05d", i))
		n := tb.get(hashKey(k), k)
		if n == nil || string(n.key) != string(k) {
			t.Fatalf("exact get(%q) wrong", k)
		}
		// Tag-only must at least return something for a present key's hash.
		if tb.getTagOnly(hashKey(k)) == nil {
			t.Fatalf("getTagOnly(%q) returned nil for present key", k)
		}
	}
}

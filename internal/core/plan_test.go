package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTryCutSimple(t *testing.T) {
	// "James"/"Jason" inside a leaf anchored at "J", next anchor "Jos":
	// the separator is "Jas", no extension, no conversion ("J" is a proper
	// prefix, so a conversion re-keys it to "J\x00").
	p := tryCut(nil, []byte("James"), []byte("Jason"), []byte("J"), []byte("Jos"), 1)
	if p == nil {
		t.Fatal("cut rejected")
	}
	if string(p.stored) != "Jas" || p.realLen != 3 {
		t.Fatalf("anchor = %q/%d", p.stored, p.realLen)
	}
	if p.conv == nil || string(p.conv.from) != "J" || string(p.conv.to) != "J\x00" {
		t.Fatalf("conversion = %+v", p.conv)
	}
}

func TestTryCutNoConversion(t *testing.T) {
	// Leaf anchored at "A", cut between "Ba" and "Ca": separator "C" does
	// not extend "A".
	p := tryCut(nil, []byte("Ba"), []byte("Ca"), []byte("A"), []byte("D"), 1)
	if p == nil || string(p.stored) != "C" || p.conv != nil {
		t.Fatalf("plan = %+v", p)
	}
}

func TestTryCutExtensionAgainstNext(t *testing.T) {
	// Separator "Jo" would be a prefix of the next anchor "Jos", so it is
	// ⊥-extended to "Jo\x00" (§2.2's appending rule).
	p := tryCut(nil, []byte("Ja"), []byte("Jo"), []byte("J\x00"), []byte("Jos"), 1)
	if p == nil {
		t.Fatal("cut rejected")
	}
	if string(p.stored) != "Jo\x00" || p.realLen != 2 {
		t.Fatalf("anchor = %q/%d", p.stored, p.realLen)
	}
}

func TestTryCutRejectsZeroTailPathologies(t *testing.T) {
	// §3.3 / Figure 8: keys 1, 10, 100, 1000, 10000 (binary). Splitting
	// between 100 and 1000 yields separator 1000 which is a prefix of the
	// next anchor 10000; extension cannot escape an all-zero tail.
	one := []byte{1}
	k := func(zeros int) []byte { return append(one[:1:1], make([]byte, zeros)...) }
	if p := tryCut(nil, k(2), k(3), []byte{}, k(4), 1); p != nil {
		t.Fatalf("pathological cut accepted: %+v", p)
	}
	// Conversion dead end: own anchor {1}, separator {1,0,0} = own + zeros.
	if p := tryCut(nil, append(k(1), 5), k(2), k(0), nil, 1); p != nil {
		t.Fatalf("conversion dead end accepted: %+v", p)
	}
}

func TestTryCutProperPrefixKeys(t *testing.T) {
	// a is a proper prefix of b: separator is a + b[len(a)].
	p := tryCut(nil, []byte("ab"), []byte("abc"), []byte("a\x00"), nil, 1)
	if p == nil || string(p.stored) != "abc" {
		t.Fatalf("plan = %+v", p)
	}
}

// TestTryCutQuick property-tests the planner: any accepted plan must
// satisfy the ordering condition (a < real <= b), the stored form must be
// the real part plus only zeros, and stored must be mutually prefix-free
// with both the (possibly re-keyed) own anchor and the next anchor.
func TestTryCutQuick(t *testing.T) {
	gen := func(r *rand.Rand) []byte {
		n := r.Intn(6)
		k := make([]byte, n)
		for i := range k {
			k[i] = byte(r.Intn(3))
		}
		return k
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		switch bytes.Compare(a, b) {
		case 0:
			return true
		case 1:
			a, b = b, a
		}
		// own <= a; next > b (or absent) to mimic legal leaf state.
		own := a[:r.Intn(len(a)+1)]
		var next []byte
		if r.Intn(3) > 0 {
			next = append(append([]byte{}, b...), byte(r.Intn(3)), byte(r.Intn(3)))
		}
		p := tryCut(nil, a, b, own, next, 1)
		if p == nil {
			return true // rejection is always safe; fat leaves cover it
		}
		real := p.stored[:p.realLen]
		if bytes.Compare(a, real) >= 0 || bytes.Compare(real, b) > 0 {
			t.Logf("ordering violated: a=%x real=%x b=%x", a, real, b)
			return false
		}
		for _, z := range p.stored[p.realLen:] {
			if z != 0 {
				t.Logf("non-zero extension: %x", p.stored)
				return false
			}
		}
		if next != nil && (isPrefix(p.stored, next) || isPrefix(next, p.stored)) {
			t.Logf("prefix clash with next: %x / %x", p.stored, next)
			return false
		}
		effOwn := own
		if p.conv != nil {
			if !bytes.Equal(p.conv.from, own) {
				t.Logf("conversion from wrong anchor")
				return false
			}
			effOwn = p.conv.to
		}
		if len(effOwn) > 0 || len(p.stored) > 0 {
			if isPrefix(p.stored, effOwn) || isPrefix(effOwn, p.stored) {
				t.Logf("prefix clash with own: %x / %x", p.stored, effOwn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSplitMiddleOut(t *testing.T) {
	l := newLeafNode(anchor{stored: []byte{}})
	for _, k := range []string{"aa", "ab", "ba", "bb", "ca", "cb"} {
		insertKey(l, k)
	}
	p := planSplit(l, sortedItems(l, nil))
	if p == nil {
		t.Fatal("no plan for a trivially splittable leaf")
	}
	// The separator between "ba" and "bb" is the shortest prefix of "bb"
	// exceeding "ba": lcp("ba","bb")=1, so the anchor is "bb" itself.
	if p.cut != 3 || string(p.stored) != "bb" {
		t.Fatalf("plan = cut %d anchor %q, want middle cut with anchor \"bb\"",
			p.cut, p.stored)
	}
}

func TestPlanSplitUnsplittable(t *testing.T) {
	l := newLeafNode(anchor{stored: []byte{1}, realLen: 1})
	one := []byte{1}
	for zeros := 0; zeros < 6; zeros++ {
		insertKey(l, string(append(one[:1:1], make([]byte, zeros)...)))
	}
	if p := planSplit(l, sortedItems(l, nil)); p != nil {
		t.Fatalf("pathological leaf got a plan: %+v", p)
	}
}

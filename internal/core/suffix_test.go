package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// forgeCRC returns a copy of k with byte at changed and the four bytes
// from win on chosen so that its CRC32-C equals k's. CRC is affine over
// GF(2): for messages of one length, crc(x^y) = crc(x)^crc(y)^crc(0…0),
// and the 32 bits of any four consecutive bytes map onto the 32 CRC bits
// one-to-one, so they can cancel any other change.
func forgeCRC(t *testing.T, k []byte, at, win int) []byte {
	t.Helper()
	zero := hashKey(make([]byte, len(k)))
	lin := func(d []byte) uint32 { return hashKey(d) ^ zero }
	d := make([]byte, len(k))
	d[at] = 0x5a
	target := lin(d)
	// Solve sum(x_b * col_b) = target over the window's 32 bits by
	// Gaussian elimination on augmented rows.
	var cols [32]uint32
	for b := range cols {
		e := make([]byte, len(k))
		e[win+b/8] = 1 << (b % 8)
		cols[b] = lin(e)
	}
	// rows[r] holds bit r of every column (bits 0–31) and of the target
	// (bit 32).
	var rows [32]uint64
	for r := range rows {
		for b, c := range cols {
			rows[r] |= uint64(c>>r&1) << b
		}
		rows[r] |= uint64(target>>r&1) << 32
	}
	for col := 0; col < 32; col++ {
		p := col
		for p < 32 && rows[p]>>col&1 == 0 {
			p++
		}
		if p == 32 {
			t.Fatal("the window's CRC map is singular")
		}
		rows[col], rows[p] = rows[p], rows[col]
		for r := range rows {
			if r != col && rows[r]>>col&1 == 1 {
				rows[r] ^= rows[col]
			}
		}
	}
	out := bytes.Clone(k)
	out[at] ^= d[at]
	for b := 0; b < 32; b++ {
		if rows[b]>>32&1 == 1 {
			out[win+b/8] ^= 1 << (b % 8)
		}
	}
	if hashKey(out) != hashKey(k) || crc32.Checksum(out, crcTable) != hashKey(k) {
		t.Fatalf("forged key %x does not collide with %x", out, k)
	}
	return out
}

// TestSuffixHashCollision plants a key from outside a leaf's fences whose
// CRC32-C equals a stored key's and whose bytes after the leaf's fence
// prefix equal that key's suffix: the hash and the suffix both match, and
// only the prefix tells the two apart. The leaf's own probes must miss it,
// and Get, GetBatch, Del and Set must never take it for the stored key.
func TestSuffixHashCollision(t *testing.T) {
	w := New(smallOpts())
	model := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("collide/a-shared-prefix/%04d/tail", i*7)
		w.Set([]byte(k), []byte("v"+k))
		model[k] = "v" + k
	}
	var leaf *leafNode
	for l := w.head; l != nil; l = l.next.Load() {
		if l.arena.Load().plen >= 8 && l.size() > 0 {
			leaf = l
			break
		}
	}
	if leaf == nil {
		t.Fatal("no leaf with an 8-byte fence prefix")
	}
	a := leaf.arena.Load()
	ref := sortedItems(leaf, nil)[0]
	stored := a.appendKey(nil, ref)
	forged := forgeCRC(t, stored, 0, a.plen-4)
	if _, rel := a.cut(forged); rel == 0 || !bytes.Equal(forged[a.plen:], a.sfx(ref)) {
		t.Fatalf("forged key %q is not an out-of-fence twin of %q", forged, stored)
	}
	if _, ok := model[string(forged)]; ok {
		t.Fatalf("forged key %q is stored", forged)
	}
	h := hashKey(forged)
	if _, r := leaf.find(h, forged); r != noRef {
		t.Fatalf("tag probe took %q for %q", forged, stored)
	}
	if v, ok := w.Get(forged); ok {
		t.Fatalf("Get(%q) = %q, want a miss", forged, v)
	}
	keys := [][]byte{forged, stored, forged}
	vals, found := make([][]byte, 3), make([]bool, 3)
	w.GetBatchInto(keys, vals, found, nil)
	if found[0] || found[2] || !found[1] || string(vals[1]) != model[string(stored)] {
		t.Fatalf("GetBatch = %q %v", vals, found)
	}
	if w.Del(forged) {
		t.Fatalf("Del(%q) reported a key", forged)
	}
	w.Set(forged, []byte("forged"))
	if v, ok := w.Get(stored); !ok || string(v) != model[string(stored)] {
		t.Fatalf("Get(%q) = %q, %v after Set of its twin", stored, v, ok)
	}
	if v, ok := w.Get(forged); !ok || string(v) != "forged" {
		t.Fatalf("Get(%q) = %q, %v after its Set", forged, v, ok)
	}
	if !w.Del(forged) {
		t.Fatalf("Del(%q) missed it", forged)
	}
	if v, ok := w.Get(stored); !ok || string(v) != model[string(stored)] {
		t.Fatalf("Get(%q) = %q, %v after Del of its twin", stored, v, ok)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSuffixScanKeysLiveOneCall holds scans to their key contract under
// the churn of TestScanChurnExactlyOnce, on keys behind a long fence
// prefix, so every key handed out is assembled: the callback keeps the
// previous key without copying it — across every chunk boundary, which
// the tiny leaves put every few pairs — and checks it is unchanged and
// strictly ordered before the current one, in both directions and
// through a pinned Reader.
func TestSuffixScanKeysLiveOneCall(t *testing.T) {
	w := New(smallOpts())
	const stable = 400
	const pre = "retain/a/long/shared/prefix/"
	for i := 0; i < stable; i++ {
		w.Set([]byte(fmt.Sprintf(pre+"s-%04d", i*3)), []byte("s"))
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	var writes atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for !done.Load() {
				k := []byte(fmt.Sprintf(pre+"s-%04d-c%02d%03d", r.Intn(stable*3), g, r.Intn(3)))
				if r.Intn(2) == 0 {
					w.Set(k, []byte("c"))
				} else {
					w.Del(k)
				}
				writes.Add(1)
			}
		}(g)
	}
	stop := func() { done.Store(true); wg.Wait() }
	defer stop()
	// The scans below finish in a few milliseconds: on a loaded host they
	// can all run before either writer is scheduled, so wait for churn.
	for writes.Load() < 200 {
		runtime.Gosched()
	}
	rd := w.NewReader()
	defer rd.Close()
	churned := 0 // churn keys seen, over all scans
	check := func(mode string, desc bool, scan func(fn func(k, v []byte) bool)) {
		t.Helper()
		var prev, prevCopy []byte
		n := 0
		scan(func(k, v []byte) bool {
			if prev != nil {
				if !bytes.Equal(prev, prevCopy) {
					t.Fatalf("%s: previous key changed under the next call: %q, was %q", mode, prev, prevCopy)
				}
				if c := bytes.Compare(prev, k); c == 0 || (c > 0) != desc {
					t.Fatalf("%s: %q then %q", mode, prev, k)
				}
			}
			if cap(k) != len(k) {
				t.Fatalf("%s: key cap %d, len %d", mode, cap(k), len(k))
			}
			if len(k) == len(pre)+6 { // churn keys are longer
				n++
			} else {
				churned++
			}
			prev, prevCopy = k, append(prevCopy[:0], k...)
			return true
		})
		if n != stable {
			t.Fatalf("%s: saw %d stable keys, want %d", mode, n, stable)
		}
	}
	for iter := 0; iter < 20; iter++ {
		check("Scan", false, func(fn func(k, v []byte) bool) { w.Scan(nil, fn) })
		check("ScanDesc", true, func(fn func(k, v []byte) bool) { w.ScanDesc(nil, fn) })
		check("Reader.Scan", false, func(fn func(k, v []byte) bool) { rd.Scan([]byte("r"), fn) })
		check("Reader.ScanDesc", true, func(fn func(k, v []byte) bool) { rd.ScanDesc([]byte("retain/b"), fn) })
	}
	stop()
	if churned == 0 {
		t.Fatal("no scan saw a churn key")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSuffixMergeRecut drains groups of keys until merges join leaves
// across group boundaries, so a surviving leaf's fences move apart and
// its prefix shortens, and its records are re-cut against the shorter
// one. Every key left must read back whole through Get, Scan and
// ScanDesc.
func TestSuffixMergeRecut(t *testing.T) {
	w := New(smallOpts())
	model := map[string]bool{}
	r := rand.New(rand.NewSource(3))
	for g := 0; g < 12; g++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("recut/group-%02d/item-%03d", g, i)
			w.Set([]byte(k), []byte(k))
			model[k] = true
		}
	}
	before := map[*leafNode]int{}
	for l := w.head; l != nil; l = l.next.Load() {
		before[l] = l.arena.Load().plen
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:len(keys)*9/10] {
		if !w.Del([]byte(k)) {
			t.Fatalf("Del(%q) missed", k)
		}
		delete(model, k)
	}
	shortened := 0
	for l := w.head; l != nil; l = l.next.Load() {
		if p, ok := before[l]; ok && l.arena.Load().plen < p {
			shortened++
		}
	}
	if shortened == 0 {
		t.Fatal("no merge shortened a leaf's prefix")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
		if v, ok := w.Get([]byte(k)); !ok || string(v) != k {
			t.Fatalf("Get(%q) = %q, %v after the merges", k, v, ok)
		}
	}
	sort.Strings(want)
	var asc, desc []string
	w.Scan(nil, func(k, v []byte) bool {
		if string(k) != string(v) {
			t.Fatalf("Scan: key %q holds %q", k, v)
		}
		asc = append(asc, string(k))
		return true
	})
	w.ScanDesc(nil, func(k, v []byte) bool { desc = append(desc, string(k)); return true })
	if fmt.Sprint(asc) != fmt.Sprint(want) {
		t.Fatalf("Scan = %q, want %q", asc, want)
	}
	for i := range desc {
		if desc[i] != want[len(want)-1-i] {
			t.Fatalf("ScanDesc[%d] = %q, want %q", i, desc[i], want[len(want)-1-i])
		}
	}
	if len(desc) != len(want) {
		t.Fatalf("ScanDesc saw %d keys, want %d", len(desc), len(want))
	}
}

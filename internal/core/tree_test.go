package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/testsupport"
)

// smallOpts uses a tiny leaf cap so splits and merges happen constantly.
func smallOpts() Options {
	o := DefaultOptions()
	o.LeafCap = 6
	o.MergeSize = 4
	return o
}

func TestEmptyIndex(t *testing.T) {
	w := New(DefaultOptions())
	if _, ok := w.Get([]byte("nope")); ok {
		t.Fatal("Get on empty index returned ok")
	}
	if w.Del([]byte("nope")) {
		t.Fatal("Del on empty index returned true")
	}
	if w.Count() != 0 {
		t.Fatal("Count != 0")
	}
	n := 0
	w.Scan(nil, func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatal("Scan on empty index emitted keys")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicSetGetDel(t *testing.T) {
	w := New(DefaultOptions())
	keys := []string{"Aaron", "Abbe", "Andrew", "Austin", "Denice", "Jacob",
		"James", "Jason", "John", "Joseph", "Julian", "Justin"}
	for i, k := range keys {
		w.Set([]byte(k), []byte(fmt.Sprintf("v%d", i)))
	}
	if w.Count() != int64(len(keys)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(keys))
	}
	for i, k := range keys {
		v, ok := w.Get([]byte(k))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%q) = %q, %v", k, v, ok)
		}
	}
	// Paper §2.3's tricky lookups: keys absent but adjacent to anchors.
	for _, k := range []string{"A", "Brown", "J", "Zed", ""} {
		if _, ok := w.Get([]byte(k)); ok {
			t.Fatalf("Get(%q) should miss", k)
		}
	}
	// Update in place.
	w.Set([]byte("John"), []byte("updated"))
	if v, _ := w.Get([]byte("John")); string(v) != "updated" {
		t.Fatalf("update failed: %q", v)
	}
	if w.Count() != int64(len(keys)) {
		t.Fatal("update changed Count")
	}
	// Delete half.
	for i, k := range keys {
		if i%2 == 0 {
			if !w.Del([]byte(k)) {
				t.Fatalf("Del(%q) = false", k)
			}
		}
	}
	for i, k := range keys {
		_, ok := w.Get([]byte(k))
		if want := i%2 != 0; ok != want {
			t.Fatalf("after deletes Get(%q) = %v, want %v", k, ok, want)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsWithSmallLeaves(t *testing.T) {
	w := New(smallOpts())
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		w.Set(k, []byte{byte(i)})
		if i%50 == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	st := w.Stats()
	if st.Leaves < n/8 {
		t.Fatalf("expected many leaves, got %d", st.Leaves)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if _, ok := w.Get(k); !ok {
			t.Fatalf("lost key %q", k)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergesDrainIndex(t *testing.T) {
	w := New(smallOpts())
	const n = 400
	for i := 0; i < n; i++ {
		w.Set([]byte(fmt.Sprintf("key-%05d", i)), []byte("x"))
	}
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for j, i := range perm {
		if !w.Del([]byte(fmt.Sprintf("key-%05d", i))) {
			t.Fatalf("Del lost key %d", i)
		}
		if j%37 == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", j+1, err)
			}
		}
	}
	if w.Count() != 0 {
		t.Fatalf("Count = %d after draining", w.Count())
	}
	st := w.Stats()
	if st.Leaves > 3 {
		t.Fatalf("merges did not shrink the list: %d leaves", st.Leaves)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyKeyAndZeroBytes(t *testing.T) {
	w := New(smallOpts())
	keys := [][]byte{
		{}, {0}, {0, 0}, {0, 0, 0}, {0, 1}, {1}, {1, 0}, {1, 0, 0}, {2},
	}
	for i, k := range keys {
		w.Set(append([]byte{}, k...), []byte{byte(i)})
	}
	for i, k := range keys {
		v, ok := w.Get(k)
		if !ok || v[0] != byte(i) {
			t.Fatalf("Get(%v) = %v, %v", k, v, ok)
		}
	}
	var got [][]byte
	w.Scan(nil, func(k, v []byte) bool {
		got = append(got, append([]byte{}, k...))
		return true
	})
	want := make([][]byte, len(keys))
	for i, k := range keys {
		want[i] = append([]byte{}, k...)
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("scan[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFatLeaves reproduces §3.3 / Figure 8: binary keys sharing a prefix
// and differing only in trailing zero counts admit no legal split anchor,
// so the leaf must grow fat instead of splitting — and must stay correct.
func TestFatLeaves(t *testing.T) {
	o := DefaultOptions()
	o.LeafCap = 4
	o.MergeSize = 2
	w := New(o)
	var keys [][]byte
	for n := 0; n <= 12; n++ {
		k := append([]byte{1}, make([]byte, n)...) // 1, 10, 100, ...
		keys = append(keys, k)
	}
	for i, k := range keys {
		w.Set(k, []byte{byte(i)})
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	st := w.Stats()
	if st.FatLeaves == 0 {
		t.Fatal("expected at least one fat leaf")
	}
	for i, k := range keys {
		v, ok := w.Get(k)
		if !ok || v[0] != byte(i) {
			t.Fatalf("Get(1 followed by %d zeros) failed", i)
		}
	}
	// Now make the set splittable and verify recovery.
	for i := 0; i < 64; i++ {
		w.Set([]byte{1, byte(i + 1), byte(i)}, []byte("z"))
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := w.Get(k); !ok || v[0] != byte(i) {
			t.Fatalf("lost fat-leaf key %d after later splits", i)
		}
	}
}

func TestScanAscending(t *testing.T) {
	w := New(smallOpts())
	const n = 300
	for i := 0; i < n; i++ {
		w.Set([]byte(fmt.Sprintf("k%04d", i*2)), []byte{1})
	}
	// From an absent key in the middle.
	var got []string
	w.Scan([]byte("k0101"), func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 10
	})
	want := []string{"k0102", "k0104", "k0106", "k0108", "k0110",
		"k0112", "k0114", "k0116", "k0118", "k0120"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan got %v want %v", got, want)
	}
	// Full scan is totally ordered and complete.
	count, lastKey := 0, ""
	w.Scan(nil, func(k, v []byte) bool {
		if string(k) <= lastKey {
			t.Fatalf("scan out of order: %q after %q", k, lastKey)
		}
		lastKey = string(k)
		count++
		return true
	})
	if count != n {
		t.Fatalf("full scan found %d keys, want %d", count, n)
	}
}

func TestScanDescending(t *testing.T) {
	w := New(smallOpts())
	const n = 300
	for i := 0; i < n; i++ {
		w.Set([]byte(fmt.Sprintf("k%04d", i*2)), []byte{1})
	}
	var got []string
	w.ScanDesc([]byte("k0101"), func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 5
	})
	want := []string{"k0100", "k0098", "k0096", "k0094", "k0092"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("desc scan got %v want %v", got, want)
	}
	// Inclusive bound.
	got = got[:0]
	w.ScanDesc([]byte("k0100"), func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 2
	})
	if got[0] != "k0100" {
		t.Fatalf("desc scan should include the start key, got %v", got)
	}
	count, lastKey := 0, "\xff"
	w.ScanDesc(nil, func(k, v []byte) bool {
		if string(k) >= lastKey {
			t.Fatalf("desc scan out of order: %q after %q", k, lastKey)
		}
		lastKey = string(k)
		count++
		return true
	})
	if count != n {
		t.Fatalf("full desc scan found %d keys, want %d", count, n)
	}
}

func TestIterator(t *testing.T) {
	w := New(smallOpts())
	const n = 257
	for i := 0; i < n; i++ {
		w.Set([]byte(fmt.Sprintf("i%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	it := w.NewIter(nil)
	count := 0
	for it.Next() {
		want := fmt.Sprintf("i%04d", count)
		if string(it.Key()) != want {
			t.Fatalf("iter key %q, want %q", it.Key(), want)
		}
		if string(it.Value()) != fmt.Sprintf("v%d", count) {
			t.Fatalf("iter value mismatch at %d", count)
		}
		count++
	}
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
	if it.Next() {
		t.Fatal("Next after exhaustion returned true")
	}
	// Seeded start, absent key.
	it = w.NewIter([]byte("i0100x"))
	if !it.Next() || string(it.Key()) != "i0101" {
		t.Fatalf("seeked iterator at %q", it.Key())
	}
	// Seeded start, present key (inclusive).
	it = w.NewIter([]byte("i0200"))
	if !it.Next() || string(it.Key()) != "i0200" {
		t.Fatalf("seeked iterator at %q, want i0200", it.Key())
	}
}

// rangeAsc collects copies of up to limit keys >= start, ascending.
func rangeAsc(w *Wormhole, start []byte, limit int) (keys [][]byte) {
	w.Scan(start, func(k, _ []byte) bool {
		keys = append(keys, bytes.Clone(k))
		return len(keys) < limit
	})
	return keys
}

// modelRun drives the index against a reference map + sorted-key model.
func modelRun(t *testing.T, o Options, seed int64, steps int, gen func(*rand.Rand) []byte) {
	t.Helper()
	w := New(o)
	model := map[string]string{}
	r := rand.New(rand.NewSource(seed))
	checkEvery := steps / 16
	if checkEvery == 0 {
		checkEvery = 1
	}
	for i := 0; i < steps; i++ {
		k := gen(r)
		switch op := r.Intn(10); {
		case op < 5: // set
			v := fmt.Sprintf("v%d", i)
			w.Set(k, []byte(v))
			model[string(k)] = v
		case op < 7: // del
			got := w.Del(k)
			_, want := model[string(k)]
			if got != want {
				t.Fatalf("step %d: Del(%x) = %v, want %v", i, k, got, want)
			}
			delete(model, string(k))
		case op < 9: // get
			v, ok := w.Get(k)
			mv, mok := model[string(k)]
			if ok != mok || (ok && string(v) != mv) {
				t.Fatalf("step %d: Get(%x) = %q,%v want %q,%v", i, k, v, ok, mv, mok)
			}
		default: // bounded range
			limit := 1 + r.Intn(8)
			keys := rangeAsc(w, k, limit)
			var want []string
			for mk := range model {
				if mk >= string(k) {
					want = append(want, mk)
				}
			}
			sort.Strings(want)
			if len(want) > limit {
				want = want[:limit]
			}
			if len(keys) != len(want) {
				t.Fatalf("step %d: range(%x,%d) len %d want %d", i, k, limit, len(keys), len(want))
			}
			for j := range keys {
				if string(keys[j]) != want[j] {
					t.Fatalf("step %d: range[%d] = %x want %x", i, j, keys[j], want[j])
				}
			}
		}
		if i%checkEvery == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	// Final: exhaustive agreement.
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if int(w.Count()) != len(model) {
		t.Fatalf("Count = %d, model has %d", w.Count(), len(model))
	}
	var got []string
	w.Scan(nil, func(k, v []byte) bool {
		got = append(got, string(k))
		if model[string(k)] != string(v) {
			t.Fatalf("final scan: value mismatch for %x", k)
		}
		return true
	})
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("final scan found %d keys, model has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final scan[%d] = %x, want %x", i, got[i], want[i])
		}
	}
}

// Key generators spanning the nasty regimes: tiny binary alphabets force
// the ⊥-extension, conversion, and fat-leaf machinery constantly; shared
// prefixes force long anchors; plain random exercises the common case.
func genBinary(r *rand.Rand) []byte {
	n := r.Intn(8)
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(r.Intn(2))
	}
	return k
}

func genSmallAlpha(r *rand.Rand) []byte {
	n := r.Intn(10)
	k := make([]byte, n)
	for i := range k {
		k[i] = 'a' + byte(r.Intn(3))
	}
	return k
}

func genTrailingZeros(r *rand.Rand) []byte {
	base := make([]byte, 1+r.Intn(3))
	for i := range base {
		base[i] = byte(r.Intn(3))
	}
	return append(base, make([]byte, r.Intn(6))...)
}

func genRandom8(r *rand.Rand) []byte {
	k := make([]byte, 8)
	r.Read(k)
	return k
}

func genSharedPrefix(r *rand.Rand) []byte {
	prefixes := []string{"http://www.example.com/", "http://www.example.org/a/", "user:"}
	p := prefixes[r.Intn(len(prefixes))]
	return []byte(fmt.Sprintf("%s%03d", p, r.Intn(300)))
}

func TestModelBinaryKeys(t *testing.T) {
	modelRun(t, smallOpts(), 1, 4000, genBinary)
}

func TestModelSmallAlphabet(t *testing.T) {
	modelRun(t, smallOpts(), 2, 4000, genSmallAlpha)
}

func TestModelTrailingZeros(t *testing.T) {
	modelRun(t, smallOpts(), 3, 4000, genTrailingZeros)
}

func TestModelRandom8(t *testing.T) {
	modelRun(t, smallOpts(), 4, 4000, genRandom8)
}

func TestModelSharedPrefix(t *testing.T) {
	modelRun(t, smallOpts(), 5, 4000, genSharedPrefix)
}

func TestModelPaperLeafSize(t *testing.T) {
	modelRun(t, DefaultOptions(), 8, 6000, genRandom8)
}

func TestLargeValuesAndOverwrite(t *testing.T) {
	w := New(DefaultOptions())
	big := bytes.Repeat([]byte("x"), 4096)
	w.Set([]byte("big"), big)
	if v, ok := w.Get([]byte("big")); !ok || len(v) != 4096 {
		t.Fatal("big value lost")
	}
	w.Set([]byte("big"), nil)
	if v, ok := w.Get([]byte("big")); !ok || v != nil {
		t.Fatalf("nil value overwrite failed: %v %v", v, ok)
	}
}

func TestStatsAndFootprint(t *testing.T) {
	w := New(smallOpts())
	for i := 0; i < 500; i++ {
		w.Set([]byte(fmt.Sprintf("stat-%04d", i)), []byte("0123456789"))
	}
	st := w.Stats()
	if st.Keys != 500 || st.Leaves == 0 || st.MetaItems == 0 || st.LeafItems != st.Leaves {
		t.Fatalf("stats look wrong: %+v", st)
	}
	if st.MaxAnchorLen == 0 {
		t.Fatal("MaxAnchorLen = 0 with many leaves")
	}
	fp := w.Footprint()
	// At minimum the raw key+value bytes must be accounted for.
	if fp < 500*(9+10) {
		t.Fatalf("Footprint = %d, implausibly small", fp)
	}
	if testsupport.RaceEnabled {
		return // the race detector changes the heap Footprint is checked against
	}
	// The analytic footprint must track the measured live heap of the heap
	// budget's load to within 25%.
	big, heap := loadHeap(t, keyset.GenAz1(heapBudgetKeys, 42))
	fpKey, heapKey := float64(big.Footprint())/heapBudgetKeys, heap/heapBudgetKeys
	t.Logf("Footprint %.1f B/key, live heap %.1f B/key", fpKey, heapKey)
	if r := fpKey / heapKey; r < 0.75 || r > 1.25 {
		t.Fatalf("Footprint %.1f B/key is not within 25%% of the live heap's %.1f B/key", fpKey, heapKey)
	}
}

func TestSequentialAndReverseInsert(t *testing.T) {
	for name, step := range map[string]int{"asc": 1, "desc": -1} {
		t.Run(name, func(t *testing.T) {
			w := New(smallOpts())
			const n = 600
			for i := 0; i < n; i++ {
				j := i
				if step < 0 {
					j = n - 1 - i
				}
				w.Set([]byte(fmt.Sprintf("s%05d", j)), []byte{1})
			}
			if err := w.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			count := 0
			w.Scan(nil, func(k, v []byte) bool { count++; return true })
			if count != n {
				t.Fatalf("found %d, want %d", count, n)
			}
		})
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func sortedKeys(gen func(*rand.Rand) []byte, n int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < n {
		k := gen(r)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

func TestBulkLoadBasic(t *testing.T) {
	keys := sortedKeys(genRandom8, 5000, 1)
	vals := make([][]byte, len(keys))
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	w := New(DefaultOptions())
	if err := w.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(keys)) {
		t.Fatalf("Count = %d", w.Count())
	}
	for i, k := range keys {
		v, ok := w.Get(k)
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%x) = %q,%v", k, v, ok)
		}
	}
	// Scans see the exact sorted sequence.
	i := 0
	w.Scan(nil, func(k, v []byte) bool {
		if !bytes.Equal(k, keys[i]) {
			t.Fatalf("scan[%d] = %x want %x", i, k, keys[i])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan saw %d keys", i)
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	keys := sortedKeys(genSmallAlpha, 2000, 2)
	w := New(smallOpts())
	if err := w.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	// The loaded structure must keep working under regular mutations:
	// updates, inserts that split bulk-built leaves, deletes that merge.
	model := map[string]bool{}
	for _, k := range keys {
		model[string(k)] = true
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		k := genSmallAlpha(r)
		if r.Intn(2) == 0 {
			w.Set(k, []byte("m"))
			model[string(k)] = true
		} else {
			got := w.Del(k)
			if got != model[string(k)] {
				t.Fatalf("step %d: Del(%x)=%v want %v", i, k, got, model[string(k)])
			}
			delete(model, string(k))
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if int(w.Count()) != len(model) {
		t.Fatalf("Count %d want %d", w.Count(), len(model))
	}
}

func TestBulkLoadEquivalentToIncremental(t *testing.T) {
	for gi, gen := range []func(*rand.Rand) []byte{
		genBinary, genTrailingZeros, genSharedPrefix,
	} {
		// Small n: these generators have deliberately tiny key spaces
		// (genBinary tops out at 255 distinct keys, genTrailingZeros at 174).
		keys := sortedKeys(gen, 120, int64(10+gi))
		bulk := New(smallOpts())
		if err := bulk.BulkLoad(keys, nil); err != nil {
			t.Fatalf("gen%d: %v", gi, err)
		}
		if err := bulk.CheckInvariants(); err != nil {
			t.Fatalf("gen%d: %v", gi, err)
		}
		inc := New(smallOpts())
		for _, k := range keys {
			inc.Set(k, nil)
		}
		for _, k := range keys {
			if _, ok := bulk.Get(k); !ok {
				t.Fatalf("gen%d: bulk lost %x", gi, k)
			}
		}
		var a, b []string
		bulk.Scan(nil, func(k, v []byte) bool { a = append(a, string(k)); return true })
		inc.Scan(nil, func(k, v []byte) bool { b = append(b, string(k)); return true })
		if len(a) != len(b) {
			t.Fatalf("gen%d: bulk %d keys, incremental %d", gi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("gen%d: order differs at %d", gi, i)
			}
		}
	}
}

func TestBulkLoadPathologicalZeroKeys(t *testing.T) {
	// All-zero-prefix keys exercise the head-anchor absorption loop.
	var keys [][]byte
	for i := 0; i < 40; i++ {
		keys = append(keys, append(make([]byte, i), 1))
		keys = append(keys, make([]byte, i+1))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	o := DefaultOptions()
	o.LeafCap = 4
	w := New(o)
	if err := w.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := w.Get(k); !ok {
			t.Fatalf("lost key %x", k)
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	w := New(DefaultOptions())
	if err := w.BulkLoad([][]byte{{2}, {1}}, nil); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	w = New(DefaultOptions())
	if err := w.BulkLoad([][]byte{{1}, {1}}, nil); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	w = New(DefaultOptions())
	if err := w.BulkLoad([][]byte{{1}}, [][]byte{{1}, {2}}); err == nil {
		t.Fatal("mismatched vals accepted")
	}
	w = New(DefaultOptions())
	w.Set([]byte("x"), nil)
	if err := w.BulkLoad([][]byte{{1}}, nil); err == nil {
		t.Fatal("non-empty index accepted")
	}
	w = New(DefaultOptions())
	if err := w.BulkLoad(nil, nil); err != nil {
		t.Fatalf("empty load should succeed: %v", err)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

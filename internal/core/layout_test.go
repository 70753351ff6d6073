package core

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"github.com/repro/wormhole/internal/keyset"
)

// TestLayout pins the per-key structures' sizes, so a field added later
// fails here by name instead of showing up as a silent per-key cost: an
// arena record is a 16-byte header plus its key and value, each padded to
// 8 bytes (88 bytes for a 36-byte key and a 32-byte value), and the inline
// tag block fits the 1,280-byte allocation size class — which, because the
// allocator prefixes every pointerful object over 512 bytes with an
// 8-byte header, means at most 1,272 bytes of block.
func TestLayout(t *testing.T) {
	a := newArena(nil, recSize(36, 32))
	r := a.put(hashKey(make([]byte, 36)), make([]byte, 36), make([]byte, 32))
	if got := a.hw.Load(); recHdr != 16 || got != 88 {
		t.Errorf("record header %d bytes and a 36+32-byte record %d bytes, want 16 and 88", recHdr, got)
	}
	if len(a.sfx(r)) != 36 || len(a.value(a.val(r))) != 32 || a.size(r) != 88 {
		t.Errorf("record reads back a %d-byte key and a %d-byte value in %d bytes",
			len(a.sfx(r)), len(a.value(a.val(r))), a.size(r))
	}
	if got := unsafe.Sizeof(tagBlock{}); got+8 > 1280 {
		t.Errorf("unsafe.Sizeof(tagBlock{}) = %d, want <= 1272 (1,280-byte class less the malloc header)", got)
	}
}

// heapBudgetKeys is the heap budget's load: that many keys, each Set with
// a cloned key and a fresh 32-byte value. heapBudgetAz1 and heapBudgetURL
// bound the live-heap growth per key it causes on the Az1 and the Url
// keyset (about 22- and 79-byte keys).
const (
	heapBudgetKeys = 200_000
	heapBudgetAz1  = 118
	heapBudgetURL  = 148
)

// loadHeap builds a default index from keys (a cloned key and a fresh
// 32-byte value per Set, both of which the index copies) and returns it
// with the live-heap growth the load caused, measured after a full GC.
func loadHeap(t *testing.T, keys [][]byte) (*Wormhole, float64) {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	w := New(DefaultOptions())
	for _, k := range keys {
		w.Set(bytes.Clone(k), make([]byte, 32))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keys)
	return w, float64(ms.HeapAlloc) - float64(before)
}

// TestHeapBytesPerKey is the index's space gate (the paper's Figure 16
// claim that speed does not cost space): live heap per key, keys and
// values included, on a short-key and a long-key load. The Url row is the
// one the leaves' fence prefixes move most.
func TestHeapBytesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the heap")
	}
	for _, c := range []struct {
		name   string
		gen    func(n int, seed int64) [][]byte
		budget float64
	}{
		{"Az1", keyset.GenAz1, heapBudgetAz1},
		{"Url", keyset.GenURL, heapBudgetURL},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys := c.gen(heapBudgetKeys, 42)
			w, heap := loadHeap(t, keys)
			perKey := heap / heapBudgetKeys
			st := w.Stats()
			t.Logf("%d %s keys: %.1f B/key live heap (budget %.0f), %d leaves, fence prefix %.1f B/leaf saving %.1f B/key",
				heapBudgetKeys, c.name, perKey, c.budget, st.Leaves, st.AvgPrefixLen, st.PrefixSavedPerKey)
			if perKey > c.budget {
				t.Fatalf("heap %.1f B/key exceeds the %.0f B/key budget", perKey, c.budget)
			}
			runtime.KeepAlive(w)
		})
	}
}

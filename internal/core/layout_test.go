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
	a := newArena(recSize(36, 32))
	r := a.put(hashKey(make([]byte, 36)), make([]byte, 36), make([]byte, 32))
	if got := a.hw.Load(); recHdr != 16 || got != 88 {
		t.Errorf("record header %d bytes and a 36+32-byte record %d bytes, want 16 and 88", recHdr, got)
	}
	if len(a.key(r)) != 36 || len(a.value(a.val(r))) != 32 || a.size(r) != 88 {
		t.Errorf("record reads back a %d-byte key and a %d-byte value in %d bytes",
			len(a.key(r)), len(a.value(a.val(r))), a.size(r))
	}
	if got := unsafe.Sizeof(tagBlock{}); got+8 > 1280 {
		t.Errorf("unsafe.Sizeof(tagBlock{}) = %d, want <= 1272 (1,280-byte class less the malloc header)", got)
	}
}

// heapBudgetKeys and heapBudgetPerKey are the heap budget's load and
// bound: heapBudgetKeys Az1 keys, each Set with a cloned key and a fresh
// 32-byte value, must grow the live heap by at most heapBudgetPerKey
// bytes per key.
const (
	heapBudgetKeys   = 200_000
	heapBudgetPerKey = 130
)

// loadAz1Heap builds a default index from n Az1 keys (a cloned key and a
// fresh 32-byte value per Set, both of which the index copies) and returns
// it with the live-heap growth the load caused, measured after a full GC.
func loadAz1Heap(t *testing.T, n int) (*Wormhole, float64) {
	t.Helper()
	keys := keyset.GenAz1(n, 42)
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
// claim that speed does not cost space): live heap per key on an Az1 load,
// keys and values included.
func TestHeapBytesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the heap")
	}
	w, heap := loadAz1Heap(t, heapBudgetKeys)
	perKey := heap / heapBudgetKeys
	t.Logf("%d Az1 keys: %.1f B/key live heap (budget %d), %d leaves",
		heapBudgetKeys, perKey, heapBudgetPerKey, w.Stats().Leaves)
	if perKey > heapBudgetPerKey {
		t.Fatalf("heap %.1f B/key exceeds the %d B/key budget", perKey, heapBudgetPerKey)
	}
	runtime.KeepAlive(w)
}

package core

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"github.com/repro/wormhole/internal/keyset"
)

// TestLayout pins the per-key structures' sizes, so a field added later
// fails here by name instead of showing up as a silent per-key cost: a kv
// is half a cache line, and the inline tag block fits the 2,304-byte
// allocation size class — which, because the allocator prefixes every
// pointerful object over 512 bytes with an 8-byte header, means at most
// 2,296 bytes of block.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(kv{}); got != 32 {
		t.Errorf("unsafe.Sizeof(kv{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(tagBlock{}); got+8 > 2304 {
		t.Errorf("unsafe.Sizeof(tagBlock{}) = %d, want <= 2296 (2,304-byte class less the malloc header)", got)
	}
}

// heapBudgetKeys and heapBudgetPerKey are the heap budget's load and
// bound: heapBudgetKeys Az1 keys, each Set with a cloned key and a fresh
// 32-byte value, must grow the live heap by at most heapBudgetPerKey
// bytes per key.
const (
	heapBudgetKeys   = 200_000
	heapBudgetPerKey = 172
)

// loadAz1Heap builds a default index from n Az1 keys the way an
// application that hands over its buffers does (a cloned key and a fresh
// 32-byte value per Set) and returns it with the live-heap growth the
// load caused, measured after a full GC.
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

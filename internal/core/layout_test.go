package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/testsupport"
)

// TestLayout pins the per-key structures' sizes, so a field added later
// fails here by name instead of showing up as a silent per-key cost: an
// arena record is a 16-byte header plus its key and value, each padded to
// 8 bytes (88 bytes for a 36-byte key and a 32-byte value), and a tag
// block is sized to its entries — 64, 96 and 128 entries land in the
// 640-, 896- and 1,280-byte size classes. A block allocation holds no
// pointer, so the allocator puts no malloc header in front of it: a
// 127-entry block (1,151 bytes) fits the 1,152-byte class, which an
// 8-byte header would push into the 1,280-byte one.
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
	for _, c := range []struct{ n, class int }{{64, 640}, {96, 896}, {128, 1280}, {127, 1152}} {
		if b := allocTagBlock(c.n); b.n != uint32(c.n) || int(b.size) != c.class {
			t.Errorf("a %d-entry tag block holds %d entries in %d bytes, want the %d-byte class", c.n, b.n, b.size, c.class)
		}
	}
	if testsupport.RaceEnabled {
		return // the race detector changes the heap
	}
	const blocks = 100
	keep := make([]*tagBlock, blocks)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, mallocs := ms.TotalAlloc, ms.Mallocs
	for i := range keep {
		keep[i] = allocTagBlock(127)
	}
	runtime.ReadMemStats(&ms)
	if per, n := (ms.TotalAlloc-before)/blocks, ms.Mallocs-mallocs; per != 1152 || n != blocks {
		t.Errorf("%d 127-entry tag blocks took %d allocations of %d bytes each, want %d of 1152 (pointer-free, one allocation per block)",
			blocks, n, per, blocks)
	}
	runtime.KeepAlive(keep)
}

// heapBudgetKeys is the heap budget's load: that many keys, each Set with
// a cloned key and a fresh 32-byte value. heapBudgetAz1 and heapBudgetURL
// bound the live-heap growth per key it causes on the Az1 and the Url
// keyset (about 22- and 79-byte keys).
const (
	heapBudgetKeys = 200_000
	heapBudgetAz1  = 112
	heapBudgetURL  = 143
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
	if testsupport.RaceEnabled {
		t.Skip("the race detector changes the heap")
	}
	for _, c := range heapLoads {
		t.Run(c.name, func(t *testing.T) {
			keys := c.gen(heapBudgetKeys, 42)
			w, heap := loadHeap(t, keys)
			perKey := heap / heapBudgetKeys
			st := w.Stats()
			t.Logf("%d %s keys: %.1f B/key live heap (budget %.0f), %d leaves, tag blocks %.1f B/key, fence prefix %.1f B/leaf saving %.1f B/key",
				heapBudgetKeys, c.name, perKey, c.budget, st.Leaves, float64(st.TagBlockBytes)/heapBudgetKeys,
				st.AvgPrefixLen, st.PrefixSavedPerKey)
			if perKey > c.budget {
				t.Fatalf("heap %.1f B/key exceeds the %.0f B/key budget", perKey, c.budget)
			}
			runtime.KeepAlive(w)
		})
	}
}

// heapLoads are the heap gates' two loads: a short-key and a long-key
// keyset, with their budgets.
var heapLoads = []struct {
	name   string
	gen    func(n int, seed int64) [][]byte
	budget float64
}{
	{"Az1", keyset.GenAz1, heapBudgetAz1},
	{"Url", keyset.GenURL, heapBudgetURL},
}

// TestFootprintTracksHeap holds Footprint, the index's analytic space
// count (which the benchmark reports as core.bytes_per_key), within 3% of
// the live-heap growth its load causes: a structure it misses or counts
// twice shows up here.
func TestFootprintTracksHeap(t *testing.T) {
	if testsupport.RaceEnabled {
		t.Skip("the race detector changes the heap")
	}
	for _, c := range heapLoads {
		t.Run(c.name, func(t *testing.T) {
			w, heap := loadHeap(t, c.gen(heapBudgetKeys, 42))
			fp := float64(w.Footprint())
			t.Logf("%d %s keys: Footprint %.1f B/key, live heap %.1f B/key",
				heapBudgetKeys, c.name, fp/heapBudgetKeys, heap/heapBudgetKeys)
			if math.Abs(fp-heap) > 0.03*heap {
				t.Errorf("Footprint %.1f B/key is more than 3%% from the live heap's %.1f B/key",
					fp/heapBudgetKeys, heap/heapBudgetKeys)
			}
			runtime.KeepAlive(w)
		})
	}
}

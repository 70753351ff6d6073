package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/wormhole/internal/testsupport"
)

// startChurn launches writers that Set/Del odd-suffixed churn keys around
// the stable keyspace, driving continuous splits and merges on the tiny
// smallOpts leaves. Each writer draws from 3,600 keys spread over the
// whole stable range, so about half of them are live at any time however
// the writers are scheduled, and a scan costs the same in every run.
// Stop by calling the returned func.
func startChurn(w *Wormhole, writers int) func() {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("s-%04d-c%02d%03d", r.Intn(1200), g, r.Intn(3)))
				if r.Intn(2) == 0 {
					w.Set(k, []byte("c"))
				} else {
					w.Del(k)
				}
			}
		}(g)
	}
	return func() {
		stop.Store(true)
		wg.Wait()
	}
}

// TestScanChurnExactlyOnce is the lock-free scan path's stress test: while
// writers churn keys that force splits and merges, every traversal mode —
// ascending Scan, descending ScanDesc, the pull Iter in both directions,
// and a pinned Reader's scans — must visit every stable key exactly once
// and in order. Run with -race.
func TestScanChurnExactlyOnce(t *testing.T) {
	w := New(smallOpts())
	const stable = 400
	for i := 0; i < stable; i++ {
		// Gaps between stable keys give churn keys room to land.
		w.Set([]byte(fmt.Sprintf("s-%04d", i*3)), []byte("s"))
	}
	stopChurn := startChurn(w, 3)
	defer stopChurn()

	// checkStable verifies an ordered key stream: strictly monotonic
	// (therefore duplicate-free, so "count == stable" means exactly once)
	// and containing every stable key.
	checkStable := func(mode string, keys []string, desc bool) {
		t.Helper()
		seen := 0
		for i, k := range keys {
			if i > 0 {
				if (!desc && keys[i-1] >= k) || (desc && keys[i-1] <= k) {
					t.Fatalf("%s: order violation %q then %q", mode, keys[i-1], k)
				}
			}
			if len(k) == 6 { // stable keys are "s-%04d"; churn keys are longer
				seen++
			}
		}
		if seen != stable {
			t.Fatalf("%s: saw %d stable keys, want %d", mode, seen, stable)
		}
	}

	rd := w.NewReader()
	defer rd.Close()
	for iter := 0; iter < 60; iter++ {
		var asc []string
		w.Scan(nil, func(k, v []byte) bool {
			asc = append(asc, string(k))
			return true
		})
		checkStable("Scan", asc, false)

		var desc []string
		w.ScanDesc(nil, func(k, v []byte) bool {
			desc = append(desc, string(k))
			return true
		})
		checkStable("ScanDesc", desc, true)

		var pinned []string
		rd.Scan([]byte("s-"), func(k, v []byte) bool {
			pinned = append(pinned, string(k))
			return true
		})
		checkStable("Reader.Scan", pinned, false)

		var it []string
		c := w.NewIter(nil)
		for c.Next() {
			it = append(it, string(c.Key()))
		}
		c.Close()
		checkStable("Iter", it, false)

		var itd []string
		cd := w.NewIterDesc(nil)
		for cd.Next() {
			itd = append(itd, string(cd.Key()))
		}
		cd.Close()
		checkStable("IterDesc", itd, true)
	}
	stopChurn()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIterWalksWithoutReseek drives the iterator across many chunk
// boundaries on a quiescent index and verifies exact key-order traversal
// in both directions — including that the chunk-boundary key is emitted
// exactly once (the cursor resumes from the retained leaf, never
// re-fetching the boundary).
func TestIterWalksWithoutReseek(t *testing.T) {
	w := New(DefaultOptions())
	const n = 5000
	for i := 0; i < n; i++ {
		w.Set([]byte(fmt.Sprintf("it-%05d", i)), []byte{byte(i)})
	}
	it := w.NewIter(nil)
	count := 0
	for it.Next() {
		if got, want := string(it.Key()), fmt.Sprintf("it-%05d", count); got != want {
			t.Fatalf("asc iter at %d: key %q, want %q", count, got, want)
		}
		count++
	}
	if count != n {
		t.Fatalf("asc iter visited %d keys, want %d", count, n)
	}
	if it.Next() {
		t.Fatal("exhausted iterator advanced")
	}
	it.Close() // idempotent after auto-release

	dit := w.NewIterDesc([]byte("it-03999"))
	count = 0
	for dit.Next() {
		if got, want := string(dit.Key()), fmt.Sprintf("it-%05d", 3999-count); got != want {
			t.Fatalf("desc iter at %d: key %q, want %q", count, got, want)
		}
		count++
	}
	dit.Close()
	if count != 4000 {
		t.Fatalf("desc iter visited %d keys, want 4000", count)
	}

	// Early abandonment must release cleanly via Close.
	short := w.NewIter([]byte("it-00100"))
	if !short.Next() || string(short.Key()) != "it-00100" {
		t.Fatal("seeked iterator misplaced")
	}
	short.Close()
	if w.q.ActiveReaders() != 0 {
		t.Fatalf("abandoned iterator left %d active readers", w.q.ActiveReaders())
	}

	// Exhaustion must auto-release the pinned slot and pooled buffer even
	// when the final chunk was non-empty (the common drain path) — an
	// iterator that ran dry holds no registration.
	drained := w.NewIter([]byte("it-04990"))
	for drained.Next() {
	}
	if drained.pin != nil || drained.sc != nil {
		t.Fatal("drained iterator did not auto-release its registration")
	}
}

// TestScanZeroAllocs guards the allocation-free scan path: a chunked scan
// over sorted leaves on a quiescent concurrent index must not allocate per
// emitted pair, in either direction, through Scan, a pinned Reader, or the
// pull iterator.
func TestScanZeroAllocs(t *testing.T) {
	w := New(DefaultOptions())
	var keys [][]byte
	for i := 0; i < 30000; i++ {
		k := []byte(fmt.Sprintf("za-%07d", i*3))
		keys = append(keys, k)
		w.Set(k, k)
	}
	cnt := 0
	fn := func(k, v []byte) bool {
		cnt++
		return cnt < 200
	}
	if n, gcs := testsupport.Mallocs(200, func() {
		cnt = 0
		w.Scan(keys[5000], fn)
	}); n > testsupport.PoolAllocs(200) {
		t.Errorf("Scan: %d allocs over 200 scans of 200 keys, want <= %d (%d GCs in the window)", n, testsupport.PoolAllocs(200), gcs)
	}
	if n, gcs := testsupport.Mallocs(200, func() {
		cnt = 0
		w.ScanDesc(keys[5000], fn)
	}); n > testsupport.PoolAllocs(200) {
		t.Errorf("ScanDesc: %d allocs over 200 scans of 200 keys, want <= %d (%d GCs in the window)", n, testsupport.PoolAllocs(200), gcs)
	}
	rd := w.NewReader()
	defer rd.Close()
	if n, gcs := testsupport.Mallocs(200, func() {
		cnt = 0
		rd.Scan(keys[5000], fn)
	}); n > testsupport.PoolAllocs(200) {
		t.Errorf("Reader.Scan: %d allocs over 200 scans of 200 keys, want <= %d (%d GCs in the window)", n, testsupport.PoolAllocs(200), gcs)
	}
	it := w.NewIter(nil)
	defer it.Close()
	if n, gcs := testsupport.Mallocs(100, func() {
		for j := 0; j < 100; j++ {
			if !it.Next() {
				t.Fatal("iterator ran dry mid-measurement")
			}
			_ = it.Key()
			_ = it.Value()
		}
	}); n != 0 {
		t.Errorf("Iter.Next: %d allocs over 100 runs of 100 pulls, want 0 (%d GCs in the window)", n, gcs)
	}
}

// TestLockedScansAblation pins the contention fallback on its own: with
// every chunk forced through lockedChunk, traversals must match the
// lock-free default.
func TestLockedScansAblation(t *testing.T) {
	w := New(smallOpts())
	w.lockedScans = true
	for i := 0; i < 500; i++ {
		w.Set([]byte(fmt.Sprintf("lk-%04d", i)), []byte{1})
	}
	prev := []byte(nil)
	n := 0
	w.Scan(nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("locked scan order violation at %q", k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != 500 {
		t.Fatalf("locked scan saw %d keys, want 500", n)
	}
	n = 0
	w.ScanDesc(nil, func(k, v []byte) bool { n++; return true })
	if n != 500 {
		t.Fatalf("locked desc scan saw %d keys, want 500", n)
	}
}

// TestIterDescInterleavedSplit: leaves larger than a scan chunk make a
// descending Iter continue in the same leaf between chunks, and a Set
// between those chunks splits that leaf, moving keys the cursor still owes
// into a right sibling the continuation would skip. The cursor's version
// check must catch every such split (and re-seek from its bound), so every
// stable key is still visited once, in order.
func TestIterDescInterleavedSplit(t *testing.T) {
	o := DefaultOptions()
	o.LeafCap = 4 * scanChunk
	w := New(o)
	const n = 6000
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		w.Set([]byte(fmt.Sprintf("u-%05d", i*2)), []byte{1})
	}
	it := w.NewIterDesc(nil)
	defer it.Close()
	seen, splits, x := 0, 0, 0
	next := n - 1
	for it.Next() {
		k := string(it.Key())
		if len(k) == 7 {
			if want := fmt.Sprintf("u-%05d", next*2); k != want {
				t.Fatalf("desc iter skipped: got %q want %q", k, want)
			}
			next--
			seen++
		}
		c := &it.c
		if it.i != len(it.batch)-1 || !c.sameLeaf {
			continue
		}
		// The next chunk continues in c.leaf: insert keys right above the
		// cursor until that leaf splits, so the cut falls among the keys
		// the cursor still owes.
		for j := 0; c.leaf.version.Load() == c.seenVer && j < 2*o.LeafCap; j++ {
			w.Set([]byte(fmt.Sprintf("u-%05d-x%05d", (next+1)*2, x)), []byte{2})
			x++
		}
		if c.leaf.version.Load() != c.seenVer {
			splits++
		}
	}
	if seen != n {
		t.Fatalf("desc iter saw %d stable keys, want %d", seen, n)
	}
	if splits == 0 {
		t.Fatal("no Set split the leaf between two same-leaf chunks")
	}
	t.Logf("%d splits between same-leaf chunks", splits)
}

package core

import (
	"fmt"
	"testing"
)

// TestScanChunkContinuationFatLeaf forces a leaf far larger than scanChunk
// (via the §3.3 fat-leaf path) so a single leaf requires several
// chunk-sized lock rounds in both scan directions.
func TestScanChunkContinuationFatLeaf(t *testing.T) {
	o := DefaultOptions()
	o.LeafCap = 4
	w := New(o)
	// One shared prefix with growing zero tails: unsplittable, so the leaf
	// grows fat well past scanChunk.
	n := scanChunk*3 + 17
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = append([]byte{7}, make([]byte, i)...)
		w.Set(keys[i], []byte{byte(i)})
	}
	st := w.Stats()
	if st.FatLeaves == 0 {
		t.Fatalf("expected a fat leaf, stats %+v", st)
	}
	count := 0
	w.Scan(nil, func(k, v []byte) bool {
		if len(k) != count+1 {
			t.Fatalf("asc order broken at %d: key len %d", count, len(k))
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("asc scan saw %d keys, want %d", count, n)
	}
	count = 0
	w.ScanDesc(nil, func(k, v []byte) bool {
		if len(k) != n-count {
			t.Fatalf("desc order broken at %d: key len %d", count, len(k))
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("desc scan saw %d keys, want %d", count, n)
	}
}

// TestScanEarlyStopInsideChunk verifies stopping mid-chunk does not visit
// or copy beyond what fn consumed (behaviourally: fn not called again).
func TestScanEarlyStopInsideChunk(t *testing.T) {
	w := New(DefaultOptions())
	for i := 0; i < 1000; i++ {
		w.Set([]byte(fmt.Sprintf("es-%04d", i)), []byte{1})
	}
	calls := 0
	w.Scan(nil, func(k, v []byte) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
}

// TestScanEmptyLeavesInPath: deletions can leave empty leaves (merge is
// opportunistic); scans must step over them silently.
func TestScanEmptyLeavesInPath(t *testing.T) {
	o := DefaultOptions()
	o.LeafCap = 4
	o.MergeSize = 1 // merges effectively disabled
	w := New(o)
	for i := 0; i < 64; i++ {
		w.Set([]byte(fmt.Sprintf("el-%03d", i)), []byte{1})
	}
	// Hollow out the middle leaves entirely.
	for i := 16; i < 48; i++ {
		w.Del([]byte(fmt.Sprintf("el-%03d", i)))
	}
	var got []string
	w.Scan([]byte("el-010"), func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 10
	})
	want := []string{"el-010", "el-011", "el-012", "el-013", "el-014",
		"el-015", "el-048", "el-049", "el-050", "el-051"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan across empty leaves = %v", got)
	}
	var back []string
	w.ScanDesc([]byte("el-050"), func(k, v []byte) bool {
		back = append(back, string(k))
		return len(back) < 4
	})
	wantBack := []string{"el-050", "el-049", "el-048", "el-015"}
	if fmt.Sprint(back) != fmt.Sprint(wantBack) {
		t.Fatalf("desc scan across empty leaves = %v", back)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScanSeekBeyondEnd starts past the largest key in both directions.
func TestScanSeekBeyondEnd(t *testing.T) {
	w := New(smallOpts())
	for i := 0; i < 50; i++ {
		w.Set([]byte(fmt.Sprintf("sb-%02d", i)), []byte{1})
	}
	n := 0
	w.Scan([]byte("zzz"), func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatalf("scan past end emitted %d keys", n)
	}
	n = 0
	w.ScanDesc([]byte("aaa"), func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatalf("desc scan before start emitted %d keys", n)
	}
	// Descending from past the end must yield everything.
	n = 0
	w.ScanDesc([]byte("zzz"), func(k, v []byte) bool { n++; return true })
	if n != 50 {
		t.Fatalf("desc scan from past end emitted %d, want 50", n)
	}
}

// TestScanReentrancy: the callback runs without internal locks held, so it
// may issue index operations (here: point reads during a scan).
func TestScanReentrancy(t *testing.T) {
	w := New(smallOpts())
	for i := 0; i < 200; i++ {
		w.Set([]byte(fmt.Sprintf("re-%03d", i)), []byte{byte(i)})
	}
	n := 0
	w.Scan(nil, func(k, v []byte) bool {
		if _, ok := w.Get(k); !ok {
			t.Fatalf("reentrant Get(%s) missed", k)
		}
		n++
		return n < 100
	})
	if n != 100 {
		t.Fatalf("visited %d", n)
	}
}

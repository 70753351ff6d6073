package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/repro/wormhole/internal/vfs"
)

// prefixedPairs yields n pairs with URL-like common-prefix keys in
// ascending order — the keyset shape prefix compression exists for.
func prefixedPairs(n int) (keys, vals [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("https://example.com/users/%07d/profile", i)))
		vals = append(vals, []byte(fmt.Sprintf("payload-%d", i)))
	}
	return keys, vals
}

func scanPairs(keys, vals [][]byte) func(fn func(k, v []byte) bool) {
	return func(fn func(k, v []byte) bool) {
		for i := range keys {
			if !fn(keys[i], vals[i]) {
				return
			}
		}
	}
}

func checkPairs(t *testing.T, keys, vals, wantK, wantV [][]byte) {
	t.Helper()
	if len(keys) != len(wantK) {
		t.Fatalf("loaded %d pairs, want %d", len(keys), len(wantK))
	}
	for i := range keys {
		if !bytes.Equal(keys[i], wantK[i]) || !bytes.Equal(vals[i], wantV[i]) {
			t.Fatalf("pair %d = %q/%q, want %q/%q", i, keys[i], vals[i], wantK[i], wantV[i])
		}
	}
}

func TestSnapshotV2Roundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, segBytes := range []int{1, 512, 1 << 20} {
			for _, workers := range []int{1, 2, 8, 0} {
				fsys := vfs.NewMemFS()
				if err := fsys.MkdirAll("/db", 0o755); err != nil {
					t.Fatal(err)
				}
				wantK, wantV := prefixedPairs(n)
				if err := writeSnapshotV2FS(fsys, "/db", 7, segBytes, scanPairs(wantK, wantV)); err != nil {
					t.Fatalf("n=%d seg=%d: write: %v", n, segBytes, err)
				}
				keys, vals, segs, err := loadSnapshotFS(fsys, "/db", 7, workers)
				if err != nil {
					t.Fatalf("n=%d seg=%d w=%d: load: %v", n, segBytes, workers, err)
				}
				if n > 0 && segs == 0 {
					t.Fatalf("n=%d: loaded zero segments from a v2 snapshot", n)
				}
				checkPairs(t, keys, vals, wantK, wantV)
			}
		}
	}
}

func TestSnapshotV2SmallerThanRawPairsForCommonPrefixKeys(t *testing.T) {
	fsys := vfs.NewMemFS()
	if err := fsys.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	keys, vals := prefixedPairs(5000)
	if err := writeSnapshotV2FS(fsys, "/db", 1, 0, scanPairs(keys, vals)); err != nil {
		t.Fatal(err)
	}
	var raw, disk int64
	for i := range keys {
		raw += int64(len(keys[i]) + len(vals[i]))
	}
	ents, err := fsys.ReadDir("/db")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		fi, err := fsys.Stat("/db/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		disk += fi.Size()
	}
	// Footer and segment framing included, the snapshot must still come
	// in under the bare key and value bytes it holds.
	if disk >= raw {
		t.Fatalf("snapshot (%d bytes) not smaller than its raw pairs (%d bytes) for common-prefix keys", disk, raw)
	}
}

// TestSegmentImagePinned pins one small snapshot's segment file and
// footer byte for byte: the on-disk format is fixed, and SegmentBuilder,
// which replication chunks share, must keep writing exactly it.
func TestSegmentImagePinned(t *testing.T) {
	const (
		wantSeg = "574853534547320a0005016170706c6531050100740205037269636f7478797a" +
			"00010262343204000000c50ea361"
		wantFooter = "5748534e4150320a0100000004000000000000000" +
			"42e13c74b6748056170706c658c23a24e"
	)
	keys := [][]byte{[]byte("apple"), []byte("applet"), []byte("apricot"), []byte("b")}
	vals := [][]byte{[]byte("1"), []byte(""), []byte("xyz"), []byte("42")}
	fsys := vfs.NewMemFS()
	if err := fsys.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshotV2FS(fsys, "/db", 1, 0, scanPairs(keys, vals)); err != nil {
		t.Fatal(err)
	}
	seg, _ := fsys.ReadFile(segPath("/db", 1, 0))
	footer, _ := fsys.ReadFile(snapPath("/db", 1))
	if got := hex.EncodeToString(seg); got != wantSeg {
		t.Fatalf("segment file\n got %s\nwant %s", got, wantSeg)
	}
	if got := hex.EncodeToString(footer); got != wantFooter {
		t.Fatalf("footer\n got %s\nwant %s", got, wantFooter)
	}
	var b SegmentBuilder
	for i := range keys {
		b.Add(keys[i], vals[i])
	}
	if b.KeyBytes() != 19 {
		t.Fatalf("builder counts %d key bytes, want 19", b.KeyBytes())
	}
	if got := hex.EncodeToString(b.Finish()); got != wantSeg {
		t.Fatalf("builder image\n got %s\nwant %s", got, wantSeg)
	}
	sk, sv, err := DecodeSegment(seg, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, sk, sv, keys, vals)
	if _, _, err := DecodeSegment(seg, 4, 18); err == nil {
		t.Fatal("decode passed a key budget one byte short")
	}
}

func TestSnapshotV2SegmentBoundaryIndependence(t *testing.T) {
	// Tiny segment budget: every segment must restart prefix compression
	// (first entry plen 0) and still load back whole.
	fsys := vfs.NewMemFS()
	if err := fsys.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	wantK, wantV := prefixedPairs(100)
	if err := writeSnapshotV2FS(fsys, "/db", 3, 1, scanPairs(wantK, wantV)); err != nil {
		t.Fatal(err)
	}
	footer, err := fsys.ReadFile(snapPath("/db", 3))
	if err != nil {
		t.Fatal(err)
	}
	metas, total, err := parseSnapshotFooter(footer)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 || len(metas) != 100 {
		t.Fatalf("1-byte budget: %d segments / %d pairs, want 100/100", len(metas), total)
	}
	// Each segment must decode with zero context from its neighbours.
	for i, m := range metas {
		data, err := fsys.ReadFile(segPath("/db", 3, i))
		if err != nil {
			t.Fatal(err)
		}
		sk, sv, err := DecodeSegment(data, m.pairs, m.keyBytes)
		if err != nil {
			t.Fatalf("segment %d standalone decode: %v", i, err)
		}
		checkPairs(t, sk, sv, wantK[i:i+1], wantV[i:i+1])
	}
}

func TestSnapshotV2GCSweepsOldAndOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	for i := 0; i < 200; i++ {
		w.Set([]byte(fmt.Sprintf("https://example.com/item/%05d", i)), []byte("v"))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segsAfterFirst := countSegs(t, dir)
	if segsAfterFirst == 0 {
		t.Fatal("first snapshot wrote no segments")
	}
	// A second snapshot must sweep the first generation's segments.
	w.Set([]byte("zzz"), []byte("v"))
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	gens := map[uint64]bool{}
	eachSeg(t, dir, func(gen uint64) { gens[gen] = true })
	if len(gens) != 1 {
		t.Fatalf("segments from %d generations survive the second snapshot, want 1", len(gens))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func countSegs(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	eachSeg(t, dir, func(uint64) { n++ })
	return n
}

func eachSeg(t *testing.T, dir string, fn func(gen uint64)) {
	t.Helper()
	ents, err := vfs.OS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if gen, ok := parseSegName(e.Name()); ok {
			fn(gen)
		}
	}
}

func TestParseSegName(t *testing.T) {
	name := segPath("", 0xabc, 17) // Join with an empty dir yields the bare name
	gen, ok := parseSegName(name)
	if !ok || gen != 0xabc {
		t.Fatalf("parseSegName(%q) = %d,%v", name, gen, ok)
	}
	for _, bad := range []string{
		"snap-0000000000000abc.snap",
		"wal-0000000000000abc.log",
		"snap-0000000000000abc-00017.seg.tmp1",
		"snap-000000000000Gabc-00017.seg",
		"snap-0000000000000abc-0z017.seg",
		"snap-0000000000000abc-00017.segx",
	} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%q) accepted", bad)
		}
	}
}

func TestStoreRecoversAcrossFormatsAndWorkerCounts(t *testing.T) {
	// End-to-end: v2 snapshot + WAL tail recovers identically at every
	// worker count, and RecoveredSegments reports the decode fan-out.
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncNone, SegmentBytes: 512})
	for i := 0; i < 300; i++ {
		w.Set([]byte(fmt.Sprintf("https://example.com/doc/%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w.Set([]byte("tail-key"), []byte("tail-val"))
	w.Del([]byte("https://example.com/doc/00000"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var serial []string
	for _, workers := range []int{1, 2, 8} {
		w2, st2 := openStore(t, dir, Options{Sync: SyncNone, DecodeWorkers: workers})
		if st2.RecoveredSegments() == 0 {
			t.Fatalf("workers=%d: recovered zero segments from a v2 snapshot", workers)
		}
		if st2.RecoveredRecords() != 2 {
			t.Fatalf("workers=%d: replayed %d tail records, want 2", workers, st2.RecoveredRecords())
		}
		var scan []string
		w2.Scan(nil, func(k, v []byte) bool {
			scan = append(scan, string(k)+"="+string(v))
			return true
		})
		if serial == nil {
			serial = scan
		} else if len(scan) != len(serial) {
			t.Fatalf("workers=%d: scan length %d != serial %d", workers, len(scan), len(serial))
		} else {
			for i := range scan {
				if scan[i] != serial[i] {
					t.Fatalf("workers=%d: scan[%d] = %q != serial %q", workers, i, scan[i], serial[i])
				}
			}
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(serial) != 300 { // 300 set - 1 del + 1 tail set
		t.Fatalf("recovered %d keys, want 300", len(serial))
	}
}

package wal

import (
	"fmt"
	"os"
	"testing"

	"github.com/repro/wormhole/internal/vfs"
)

// Format-compatibility suite: stores holding a v1 snapshot (written by
// older builds; here by the writeSnapshotFS fixture) must recover
// byte-identically through the current loader and upgrade to v2 on the
// next Snapshot, directories mixing v1 and v2 generations must recover
// from the newest valid one, and a v2 footer whose segment set is
// incomplete must fall back to the previous generation rather than load
// a partial shard.

func scanAll(b Backend) []string {
	var out []string
	b.Scan(nil, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	return out
}

func TestV1WrittenStoreRecoversThroughCurrentLoader(t *testing.T) {
	dir := t.TempDir()
	// A v1-era store: a monolithic snapshot at generation 1, then a WAL
	// tail logged on top of it.
	var keys, vals [][]byte
	for i := 0; i < 500; i++ {
		keys = append(keys, []byte(fmt.Sprintf("https://example.com/page/%05d", i)))
		vals = append(vals, []byte(fmt.Sprintf("v%d", i)))
	}
	if err := writeSnapshotFS(vfs.OS(), snapPath(dir, 1), scanPairs(keys, vals)); err != nil {
		t.Fatal(err)
	}
	w, st := openStore(t, dir, Options{Sync: SyncNone})
	w.Set([]byte("after-snap"), []byte("tail"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := scanAll(w)
	if len(want) != 501 {
		t.Fatalf("v1 store holds %d keys, want 501", len(want))
	}

	// Reopen: the snapshot comes back through the v1 loader, the tail
	// through WAL replay.
	w2, st2 := openStore(t, dir, Options{Sync: SyncNone})
	if st2.RecoveredPairs() != 500 {
		t.Fatalf("recovered %d snapshot pairs, want 500", st2.RecoveredPairs())
	}
	if st2.RecoveredSegments() != 0 {
		t.Fatalf("v1 snapshot reported %d segments, want 0", st2.RecoveredSegments())
	}
	got := scanAll(w2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %q, want %q", i, got[i], want[i])
		}
	}

	// And the next snapshot upgrades the directory to v2 in place.
	if err := st2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if n := countSegs(t, dir); n == 0 {
		t.Fatal("snapshot after v1 recovery wrote no v2 segments")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, st3 := openStore(t, dir, Options{Sync: SyncNone})
	defer st3.Close()
	if st3.RecoveredSegments() == 0 {
		t.Fatal("upgraded directory did not recover through the v2 loader")
	}
	got = scanAll(w3)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after upgrade, pair %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// mixedGenDir builds a directory holding a v1 snapshot at generation 2
// (pairs keyed v1-*) and a v2 snapshot at generation 5 (pairs keyed
// v2-*), with no WAL files — recovery must pick the newest valid one.
func mixedGenDir(t *testing.T) vfs.FS {
	t.Helper()
	fsys := vfs.NewMemFS()
	if err := fsys.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	k1, v1 := [][]byte{[]byte("v1-a"), []byte("v1-b")}, [][]byte{[]byte("1"), []byte("2")}
	if err := writeSnapshotFS(fsys, snapPath("/db", 2), scanPairs(k1, v1)); err != nil {
		t.Fatal(err)
	}
	k2, v2 := prefixedPairs(50)
	if err := writeSnapshotV2FS(fsys, "/db", 5, 256, scanPairs(k2, v2)); err != nil {
		t.Fatal(err)
	}
	return fsys
}

func TestMixedGenerationsRecoverFromNewestValid(t *testing.T) {
	fsys := mixedGenDir(t)
	w := backend()
	st, err := Open("/db", w, Options{Sync: SyncNone, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.RecoveredPairs() != 50 || st.RecoveredSegments() == 0 {
		t.Fatalf("recovered %d pairs / %d segments, want the 50-pair v2 generation",
			st.RecoveredPairs(), st.RecoveredSegments())
	}
	wantK, wantV := prefixedPairs(50)
	got := scanAll(w)
	for i := range got {
		if got[i] != string(wantK[i])+"="+string(wantV[i]) {
			t.Fatalf("pair %d = %q", i, got[i])
		}
	}
}

func writeRaw(t *testing.T, fsys vfs.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingSegmentFallsBackToPreviousGeneration(t *testing.T) {
	for _, damage := range []string{"missing", "truncated", "crcflip"} {
		fsys := mixedGenDir(t)
		// Damage one middle segment of the v2 generation.
		path := segPath("/db", 5, 1)
		switch damage {
		case "missing":
			if err := fsys.Remove(path); err != nil {
				t.Fatal(err)
			}
		case "truncated":
			data, err := fsys.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			writeRaw(t, fsys, path, data[:len(data)-3])
		case "crcflip":
			data, err := fsys.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			writeRaw(t, fsys, path, data)
		}
		w := backend()
		st, err := Open("/db", w, Options{Sync: SyncNone, FS: fsys})
		if err != nil {
			t.Fatalf("%s: %v", damage, err)
		}
		// Never a partial shard: the damaged v2 generation must be skipped
		// wholesale in favor of the older v1 snapshot.
		if st.RecoveredPairs() != 2 || st.RecoveredSegments() != 0 {
			t.Fatalf("%s: recovered %d pairs / %d segments, want the 2-pair v1 fallback",
				damage, st.RecoveredPairs(), st.RecoveredSegments())
		}
		got := scanAll(w)
		if len(got) != 2 || got[0] != "v1-a=1" || got[1] != "v1-b=2" {
			t.Fatalf("%s: fallback scan = %v", damage, got)
		}
		st.Close()
	}
}

package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/wormhole/internal/vfs"
)

// Generation suite: a directory whose snapshot is in the retired v1
// format is refused and left untouched, directories holding several
// snapshot generations recover from the newest valid one, and a footer
// whose segment set is incomplete falls back to the previous generation
// rather than loading a partial shard.

func scanAll(b Backend) []string {
	var out []string
	b.Scan(nil, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	return out
}

// retiredSnapshot is a v1 snapshot file as builds before the segment
// format wrote it, holding alpha=1, beta=2, gamma=3:
// [magic][count u64] count × ([klen uvarint][vlen uvarint][key][val])
// [crc32c u32].
const retiredSnapshot = "5748534e4150310a0300000000000000" +
	"0501616c7068613104016265746132050167616d6d6133ab554e9f"

// TestRetiredSnapshotFormatRefused opens a directory holding a v1
// snapshot at generation 2 and the WAL generations 2 and 3 logged after
// it. Open must fail with an error naming the snapshot file — not load
// it, not skip it as corrupt (that fallback would remove both WAL files
// as a gap) — and must leave every file in place, byte for byte.
func TestRetiredSnapshotFormatRefused(t *testing.T) {
	dir := t.TempDir()
	v1, _ := hex.DecodeString(retiredSnapshot)
	if err := os.WriteFile(snapPath(dir, 2), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for g := uint64(2); g <= 3; g++ {
		l, err := openLog(vfs.OS(), walPath(dir, g), 0, SyncNone, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.Append(appendSetRecord(nil, []byte(fmt.Sprintf("g%d-%d", g, i)), []byte("v"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	before := readDir(t, dir)

	for attempt := 0; attempt < 2; attempt++ { // the refusal releases the directory lock
		_, err := Open(dir, backend(), Options{Sync: SyncNone})
		if !errors.Is(err, errRetiredSnapshot) {
			t.Fatalf("attempt %d: Open = %v, want the retired-format refusal", attempt, err)
		}
		if !strings.Contains(err.Error(), snapPath(dir, 2)) {
			t.Fatalf("attempt %d: refusal %q does not name the snapshot file", attempt, err)
		}
	}
	after := readDir(t, dir)
	delete(after, "LOCK")
	if len(after) != len(before) {
		t.Fatalf("directory changed: %d files before Open, %d after", len(before), len(after))
	}
	for name, data := range before {
		if got, ok := after[name]; !ok || !bytes.Equal(got, data) {
			t.Fatalf("%s removed or rewritten by a refused Open", name)
		}
	}
}

// readDir returns every regular file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// mixedGenDir builds a directory holding a two-pair snapshot at
// generation 2 (keys old-*) and a 50-pair multi-segment snapshot at
// generation 5, with no WAL files — recovery must pick the newest valid
// one.
func mixedGenDir(t *testing.T) vfs.FS {
	t.Helper()
	fsys := vfs.NewMemFS()
	if err := fsys.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	k1, v1 := [][]byte{[]byte("old-a"), []byte("old-b")}, [][]byte{[]byte("1"), []byte("2")}
	if err := writeSnapshotV2FS(fsys, "/db", 2, 0, scanPairs(k1, v1)); err != nil {
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
		// Damage one middle segment of the newer generation.
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
		// Never a partial shard: the damaged newer generation must be
		// skipped wholesale in favor of the older one-segment snapshot.
		if st.RecoveredPairs() != 2 || st.RecoveredSegments() != 1 {
			t.Fatalf("%s: recovered %d pairs / %d segments, want the 2-pair fallback",
				damage, st.RecoveredPairs(), st.RecoveredSegments())
		}
		got := scanAll(w)
		if len(got) != 2 || got[0] != "old-a=1" || got[1] != "old-b=2" {
			t.Fatalf("%s: fallback scan = %v", damage, got)
		}
		st.Close()
	}
}

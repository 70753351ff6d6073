package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/wormhole/internal/core"

	"github.com/repro/wormhole/internal/vfs"
)

// buildWAL frames the given payloads into valid WAL bytes, for seeds.
func buildWAL(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	dir := t.TempDir()
	p := filepath.Join(dir, "seed.log")
	l, err := openLog(vfs.OS(), p, 0, SyncNone, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range payloads {
		if _, err := l.Append(pl); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzWALDecode feeds arbitrary bytes through the full recovery path: the
// frame reader must stop cleanly at the first invalid record (no panic,
// no error), every accepted record must decode as a mutation, and opening
// a store over the bytes must yield a consistent index whose WAL can be
// appended to and recovered again — recovery of a recovered log is a
// fixed point.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildWAL(f,
		appendSetRecord(nil, []byte("key"), []byte("value")),
		appendDelRecord(nil, []byte("key")),
		appendSetRecord(nil, []byte(""), []byte("")),
	))
	valid := buildWAL(f, appendSetRecord(nil, []byte("alpha"), []byte("1")))
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                       // torn payload
	f.Add(append(valid, 0, 0, 0, 0, 0, 0, 0, 0))      // zero tail
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}) // huge length

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := walPath(dir, 1)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		records := 0
		validLen, err := replayFS(vfs.OS(), p, func(payload []byte) error {
			if _, _, _, derr := decodeRecord(payload); derr != nil {
				return derr
			}
			records++
			return nil
		})
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", validLen, len(data))
		}
		_ = err // a decode error ends recovery; Open treats it as a tear

		o := core.DefaultOptions()
		o.LeafCap = 16 // small leaves: splits and merges under short inputs
		w := core.New(o)
		st, openErr := Open(dir, w, Options{Sync: SyncNone})
		if openErr != nil {
			t.Fatalf("Open on fuzzed WAL: %v", openErr)
		}
		w.SetMutationHook(st)
		if int64(st.RecoveredRecords()) > int64(records) {
			t.Fatalf("store replayed %d records, frame reader accepted %d",
				st.RecoveredRecords(), records)
		}
		// The recovered index must be internally consistent and reopenable.
		w.Set([]byte("post-recovery"), []byte("x"))
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		w2 := core.New(o)
		if _, err := Open(dir, w2, Options{Sync: SyncNone}); err != nil {
			t.Fatalf("re-Open after recovery: %v", err)
		}
		if w2.Count() < 1 {
			t.Fatal("appended record lost across recovery cycle")
		}
	})
}

// FuzzSegmentLoad feeds hostile bytes to the v2 segment and footer
// parsers three ways: raw (magic/CRC/truncation rejection), as a
// CRC-corrected segment image (the fuzzer reaches past the checksum into
// entry parsing: corrupt prefix lengths, truncated suffixes, unsorted
// keys), and as a CRC-corrected footer image driven through the full
// segment-set loader over an empty directory (boundary lies, count
// mismatches, missing segments). Nothing may panic; allocation may never
// exceed the passed budgets on a corrupt length's say-so; anything
// accepted must be strictly ascending and bulk-loadable.
func FuzzSegmentLoad(f *testing.F) {
	// Budgets a CRC-valid-but-hostile image must not break: a prefix
	// ladder (each entry extending the previous key) costs the attacker
	// ~1 input byte per key byte squared, so the decoder must cut off at
	// the budget, not allocate through it.
	const maxPairs, maxKeyBytes = 1 << 16, 1 << 20

	seedDir := func(pairs ...string) vfs.FS {
		fsys := vfs.NewMemFS()
		if err := fsys.MkdirAll("/db", 0o755); err != nil {
			f.Fatal(err)
		}
		err := writeSnapshotV2FS(fsys, "/db", 1, 64, func(fn func(k, v []byte) bool) {
			for i := 0; i+1 < len(pairs); i += 2 {
				if !fn([]byte(pairs[i]), []byte(pairs[i+1])) {
					return
				}
			}
		})
		if err != nil {
			f.Fatal(err)
		}
		return fsys
	}
	fsys := seedDir(
		"https://a.example/1", "v1",
		"https://a.example/2", "v2",
		"https://b.example/1", "v3",
	)
	if seg, err := fsys.ReadFile(segPath("/db", 1, 0)); err == nil {
		f.Add(seg)
		f.Add(seg[:len(seg)-3]) // truncated
		flip := append([]byte(nil), seg...)
		flip[len(flip)/2] ^= 0x20 // CRC mismatch
		f.Add(flip)
	}
	if footer, err := fsys.ReadFile(snapPath("/db", 1)); err == nil {
		f.Add(footer)
	}
	f.Add([]byte{})
	f.Add([]byte("WHSSEG2\n"))
	f.Add([]byte("WHSNAP2\n"))
	// Fix-up-format seeds: [count byte][entries...] — two ascending pairs,
	// then a non-ascending pair the harness must reject.
	f.Add([]byte{2, 0, 1, 1, 'a', '1', 1, 1, 1, 'b', '2'})
	f.Add([]byte{2, 0, 1, 1, 'b', '1', 0, 1, 1, 'a', '2'})

	check := func(t *testing.T, keys, vals [][]byte) {
		t.Helper()
		if len(keys) != len(vals) {
			t.Fatalf("%d keys but %d vals", len(keys), len(vals))
		}
		var kb uint64
		for i := range keys {
			kb += uint64(len(keys[i]))
			if i > 0 && bytes.Compare(keys[i-1], keys[i]) >= 0 {
				t.Fatalf("accepted segment with unsorted keys at %d", i)
			}
		}
		if uint64(len(keys)) > maxPairs || kb > maxKeyBytes {
			t.Fatalf("decode exceeded its budgets: %d pairs, %d key bytes", len(keys), kb)
		}
		w := core.New(core.DefaultOptions())
		if err := w.BulkLoad(keys, vals); err != nil {
			t.Fatalf("accepted segment failed bulkload: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw: arbitrary bytes straight into both parsers.
		if keys, vals, err := DecodeSegment(data, maxPairs, maxKeyBytes); err == nil {
			check(t, keys, vals)
		}
		_, _, _ = parseSnapshotFooter(data)

		if len(data) == 0 {
			return
		}
		// CRC-corrected segment: first input byte is the claimed count, the
		// rest the entry bytes; magic, count field and CRC are made valid so
		// only the entry structure is under test.
		seg := append([]byte(nil), segMagic...)
		seg = append(seg, data[1:]...)
		seg = binary.LittleEndian.AppendUint32(seg, uint32(data[0]))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(seg, castagnoli))
		if keys, vals, err := DecodeSegment(seg, maxPairs, maxKeyBytes); err == nil {
			check(t, keys, vals)
		}

		// CRC-corrected footer through the full loader: an empty directory
		// means any accepted footer must fail on its missing or mis-sized
		// segments — never a partial load.
		footer := append([]byte(nil), snapMagic2...)
		footer = append(footer, data...)
		footer = binary.LittleEndian.AppendUint32(footer, crc32.Checksum(footer, castagnoli))
		empty := vfs.NewMemFS()
		if err := empty.MkdirAll("/db", 0o755); err != nil {
			t.Fatal(err)
		}
		if keys, _, _, err := loadSnapshotV2FS(empty, "/db", 1, footer, 2); err == nil && len(keys) != 0 {
			t.Fatalf("loader produced %d pairs from a directory with no segments", len(keys))
		}
	})
}

// FuzzSnapshotLoad feeds arbitrary bytes to the generation loader as the
// snapshot file of a directory that already holds a real multi-segment
// generation, two ways: raw, as the file Open reads (a retired v1 file
// must be refused as retired — never loaded, never taken for corrupt),
// and, when the bytes open with the footer magic, CRC-corrected, so the
// fuzzer can make a footer lie about segments that exist: pair counts,
// key budgets, first keys, segment counts. Nothing may panic, and
// anything accepted must be strictly ascending, bulk-loadable, and no
// more than the generation holds.
func FuzzSnapshotLoad(f *testing.F) {
	fsys := vfs.NewMemFS()
	if err := fsys.MkdirAll("/db", 0o755); err != nil {
		f.Fatal(err)
	}
	keys, vals := prefixedPairs(40)
	if err := writeSnapshotV2FS(fsys, "/db", 1, 256, scanPairs(keys, vals)); err != nil {
		f.Fatal(err)
	}
	footer, err := fsys.ReadFile(snapPath("/db", 1))
	if err != nil {
		f.Fatal(err)
	}
	v1, _ := hex.DecodeString(retiredSnapshot)
	f.Add([]byte{})
	f.Add(retiredSnapMagic)
	f.Add(footer)
	f.Add(footer[:len(footer)-1])
	f.Add(snapMagic2)
	f.Add(v1)

	check := func(t *testing.T, got, gotV [][]byte) {
		t.Helper()
		if len(got) != len(gotV) || len(got) > len(keys) {
			t.Fatalf("accepted %d keys and %d vals from a %d-pair generation", len(got), len(gotV), len(keys))
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("accepted snapshot with unsorted keys at %d", i)
			}
		}
		w := core.New(core.DefaultOptions())
		if err := w.BulkLoad(got, gotV); err != nil {
			t.Fatalf("accepted snapshot failed bulkload: %v", err)
		}
		if int(w.Count()) != len(got) {
			t.Fatalf("bulkload count %d != %d", w.Count(), len(got))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		writeRaw(t, fsys, snapPath("/db", 1), data)
		got, gotV, _, err := loadSnapshotFS(fsys, "/db", 1, 2)
		if bytes.HasPrefix(data, retiredSnapMagic) != errors.Is(err, errRetiredSnapshot) {
			t.Fatalf("v1 magic %v, but load returned %v", bytes.HasPrefix(data, retiredSnapMagic), err)
		}
		if err == nil {
			check(t, got, gotV)
		}
		if !bytes.HasPrefix(data, snapMagic2) || len(data) < len(snapMagic2)+snapTrailer {
			return
		}
		fixed := append([]byte(nil), data[:len(data)-snapTrailer]...)
		fixed = binary.LittleEndian.AppendUint32(fixed, crc32.Checksum(fixed, castagnoli))
		if got, gotV, _, err := loadSnapshotV2FS(fsys, "/db", 1, fixed, 2); err == nil {
			check(t, got, gotV)
		}
	})
}

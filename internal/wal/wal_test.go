package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/core"

	"github.com/repro/wormhole/internal/vfs"
)

func TestLogAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	l, err := openLog(vfs.OS(), path, 0, SyncNone, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	n, err := replayFS(vfs.OS(), path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if n != fi.Size() {
		t.Fatalf("valid prefix %d != file size %d", n, fi.Size())
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q want %q", i, got[i], want[i])
		}
	}
}

func TestLogReplayMissingFile(t *testing.T) {
	n, err := replayFS(vfs.OS(), filepath.Join(t.TempDir(), "nope.log"), func([]byte) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	l, err := openLog(vfs.OS(), path, 0, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				// The append/wait split the mutation hook uses: every
				// worker joins the group commit for its own record.
				if err := l.WaitDurable(seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := replayFS(vfs.OS(), path, func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != workers*per {
		t.Fatalf("replayed %d records, want %d", count, workers*per)
	}
}

func TestLogDoubleCloseIdempotent(t *testing.T) {
	l, err := openLog(vfs.OS(), filepath.Join(t.TempDir(), "w.log"), 0, SyncInterval, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append([]byte("y")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	var keys, vals [][]byte
	for i := 0; i < 1000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%06d", i)))
		vals = append(vals, []byte(fmt.Sprintf("val-%d", i*i)))
	}
	if err := writeSnapshotV2FS(vfs.OS(), dir, 1, 4096, scanPairs(keys, vals)); err != nil {
		t.Fatal(err)
	}
	gk, gv, segs, err := loadSnapshotFS(vfs.OS(), dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if segs < 2 {
		t.Fatalf("loaded %d segments, want several at a 4 KiB budget", segs)
	}
	checkPairs(t, gk, gv, keys, vals)
}

func TestSnapshotEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshotV2FS(vfs.OS(), dir, 3, 0, func(func(k, v []byte) bool) {}); err != nil {
		t.Fatal(err)
	}
	gk, gv, segs, err := loadSnapshotFS(vfs.OS(), dir, 3, 0)
	if err != nil || len(gk) != 0 || len(gv) != 0 || segs != 0 {
		t.Fatalf("empty snapshot: %d pairs, %d segments, err %v", len(gk), segs, err)
	}
	// And a store whose snapshot is empty reopens empty, from that snapshot.
	_, st := openStore(t, dir, Options{Sync: SyncNone})
	defer st.Close()
	if st.RecoveredPairs() != 0 || st.RecoveredRecords() != 0 {
		t.Fatalf("recovered %d pairs, %d records from an empty snapshot",
			st.RecoveredPairs(), st.RecoveredRecords())
	}
	if st.gen != 3 {
		t.Fatalf("store appends to generation %d, want the empty snapshot's 3", st.gen)
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshotV2FS(vfs.OS(), dir, 1, 0, func(fn func(k, v []byte) bool) {
		fn([]byte("a"), []byte("1"))
		fn([]byte("b"), []byte("2"))
	}); err != nil {
		t.Fatal(err)
	}
	footer, _ := os.ReadFile(snapPath(dir, 1))
	seg, _ := os.ReadFile(segPath(dir, 1, 0))
	mutate := func(name, path string, orig []byte, f func([]byte) []byte) {
		os.WriteFile(path, f(append([]byte(nil), orig...)), 0o644)
		defer os.WriteFile(path, orig, 0o644)
		if _, _, _, err := loadSnapshotFS(vfs.OS(), dir, 1, 0); err == nil {
			t.Fatalf("%s: corrupt snapshot loaded", name)
		}
	}
	for _, c := range []struct {
		file string
		path string
		orig []byte
	}{{"footer", snapPath(dir, 1), footer}, {"segment", segPath(dir, 1, 0), seg}} {
		mutate(c.file+" truncated", c.path, c.orig, func(b []byte) []byte { return b[:len(b)-3] })
		mutate(c.file+" flipped", c.path, c.orig, func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
		mutate(c.file+" badmagic", c.path, c.orig, func(b []byte) []byte { b[0] ^= 0xff; return b })
		mutate(c.file+" extended", c.path, c.orig, func(b []byte) []byte { return append(b, 0, 0, 0, 0) })
	}
	if _, _, _, err := loadSnapshotFS(vfs.OS(), dir, 1, 0); err != nil {
		t.Fatalf("restored snapshot: %v", err)
	}
}

// backend returns a fresh core index satisfying wal.Backend.
func backend() *core.Wormhole { return core.New(core.DefaultOptions()) }

func openStore(t *testing.T, dir string, opt Options) (*core.Wormhole, *Store) {
	t.Helper()
	w := backend()
	st, err := Open(dir, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	w.SetMutationHook(st)
	return w, st
}

func TestStoreRecoverWALOnly(t *testing.T) {
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 500; i++ {
		w.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	w.Del([]byte("k0007"))
	w.Set([]byte("k0008"), []byte("rewritten"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	w2, st2 := openStore(t, dir, Options{Sync: SyncNone})
	defer st2.Close()
	if w2.Count() != 499 {
		t.Fatalf("recovered %d keys, want 499", w2.Count())
	}
	if _, ok := w2.Get([]byte("k0007")); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, ok := w2.Get([]byte("k0008")); !ok || string(v) != "rewritten" {
		t.Fatalf("k0008 = %q,%v", v, ok)
	}
	if st2.RecoveredRecords() != 502 {
		t.Fatalf("replayed %d records, want 502", st2.RecoveredRecords())
	}
}

func TestStoreSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 300; i++ {
		w.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail.
	for i := 300; i < 350; i++ {
		w.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("tail"))
	}
	w.Del([]byte("k0000"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The old generation must be gone.
	wals, _ := listGens(vfs.OS(), dir, "wal-", ".log")
	snaps, _ := listGens(vfs.OS(), dir, "snap-", ".snap")
	if len(wals) != 1 || len(snaps) != 1 {
		t.Fatalf("after snapshot: %d wals, %d snaps (want 1, 1)", len(wals), len(snaps))
	}

	w2, st2 := openStore(t, dir, Options{Sync: SyncNone})
	defer st2.Close()
	if w2.Count() != 349 {
		t.Fatalf("recovered %d keys, want 349", w2.Count())
	}
	if st2.RecoveredPairs() != 300 {
		t.Fatalf("snapshot restored %d pairs, want 300", st2.RecoveredPairs())
	}
	if st2.RecoveredRecords() != 51 {
		t.Fatalf("tail replayed %d records, want 51", st2.RecoveredRecords())
	}
	if v, ok := w2.Get([]byte("k0349")); !ok || string(v) != "tail" {
		t.Fatalf("k0349 = %q,%v", v, ok)
	}
	if _, ok := w2.Get([]byte("k0000")); ok {
		t.Fatal("post-snapshot delete lost")
	}
}

func TestStoreSnapshotWithConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	o := core.DefaultOptions()
	w := core.New(o) // concurrent index: writers race the snapshot scan
	st, err := Open(dir, w, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	w.SetMutationHook(st)

	for i := 0; i < 200; i++ {
		w.Set([]byte(fmt.Sprintf("base%04d", i)), []byte("v"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w.Set([]byte(fmt.Sprintf("live%d-%04d", g, i%100)), []byte(fmt.Sprintf("%d", i)))
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if err := st.Snapshot(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must converge to the exact final state.
	w2, st2 := openStore(t, dir, Options{Sync: SyncNone})
	defer st2.Close()
	if w2.Count() != w.Count() {
		t.Fatalf("recovered %d keys, want %d", w2.Count(), w.Count())
	}
	w.Scan(nil, func(k, v []byte) bool {
		gv, ok := w2.Get(k)
		if !ok || !bytes.Equal(gv, v) {
			t.Fatalf("recovered %q = %q,%v want %q", k, gv, ok, v)
		}
		return true
	})
}

func TestStoreCloseIdempotentAndDropsLateWrites(t *testing.T) {
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncAlways})
	w.Set([]byte("a"), []byte("1"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Mutations after Close still apply in memory but are not logged and
	// must not panic.
	w.Set([]byte("b"), []byte("2"))
	if err := st.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := st.Snapshot(); err != ErrClosed {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}

	w2, st2 := openStore(t, dir, Options{Sync: SyncNone})
	defer st2.Close()
	if _, ok := w2.Get([]byte("a")); !ok {
		t.Fatal("logged key lost")
	}
	if _, ok := w2.Get([]byte("b")); ok {
		t.Fatal("unlogged post-close key recovered")
	}
}

func TestStoreSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncInterval, Interval: 2 * time.Millisecond})
	w.Set([]byte("k"), []byte("v"))
	// Wait for the background flusher, then verify the bytes are in the
	// file without going through Close's flush.
	deadline := time.Now().Add(2 * time.Second)
	for {
		wals, _ := listGens(vfs.OS(), dir, "wal-", ".log")
		if len(wals) == 1 {
			if fi, err := os.Stat(walPath(dir, wals[0])); err == nil && fi.Size() > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never wrote the record")
		}
		time.Sleep(time.Millisecond)
	}
	st.Close()
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"none", SyncNone, true}, {"", SyncNone, true},
		{"interval", SyncInterval, true}, {"always", SyncAlways, true},
		{"fsync", SyncNone, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncAlways.String() != "always" || SyncNone.String() != "none" || SyncInterval.String() != "interval" {
		t.Fatal("String() spelling drift")
	}
}

// TestStoreSameKeyRaceOrder hammers a single key from racing writers:
// because the hook appends under the owning leaf's lock, log order must
// equal commit order, so the recovered value always equals the final
// in-memory value — the no-phantom guarantee under contention.
func TestStoreSameKeyRaceOrder(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		o := core.DefaultOptions()
		w := core.New(o)
		st, err := Open(dir, w, Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		w.SetMutationHook(st)
		key := []byte("contended")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if i%7 == 3 {
						w.Del(key)
					} else {
						w.Set(key, []byte(fmt.Sprintf("g%d-i%d", g, i)))
					}
				}
			}(g)
		}
		wg.Wait()
		finalVal, finalOK := w.Get(key)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		w3 := backend()
		st3, err := Open(dir, w3, Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer st3.Close()
		gotVal, gotOK := w3.Get(key)
		if gotOK != finalOK || (finalOK && string(gotVal) != string(finalVal)) {
			t.Fatalf("round %d: recovered %q,%v but final in-memory state was %q,%v (log order diverged from commit order)",
				round, gotVal, gotOK, finalVal, finalOK)
		}
	}
}

func TestStoreDirLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	_, st := openStore(t, dir, Options{Sync: SyncNone})
	if _, err := Open(dir, backend(), Options{Sync: SyncNone}); err == nil {
		t.Fatal("second Open on a live directory succeeded; concurrent owners would corrupt the WAL")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Released on Close: a fresh Open succeeds.
	_, st2 := openStore(t, dir, Options{Sync: SyncNone})
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoveryRefusesGappedGenerations(t *testing.T) {
	dir := t.TempDir()
	w, st := openStore(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 100; i++ {
		w.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := st.Snapshot(); err != nil { // snap-2 + wal-2
		t.Fatal(err)
	}
	w.Set([]byte("tail"), []byte("t"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Destroy the snapshot: wal-2 alone must NOT be replayed onto an
	// empty index — its records assume the snapshot state, so replaying
	// them without it would fabricate a non-prefix state.
	snaps, _ := listGens(vfs.OS(), dir, "snap-", ".snap")
	for _, g := range snaps {
		os.Remove(snapPath(dir, g))
	}
	w2 := backend()
	st2, err := Open(dir, w2, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("gapped recovery errored instead of degrading: %v", err)
	}
	defer st2.Close()
	if w2.Count() != 0 || st2.RecoveredRecords() != 0 {
		t.Fatalf("gapped recovery fabricated state: %d keys, %d records",
			w2.Count(), st2.RecoveredRecords())
	}
	// The orphaned generation must be gone so it can't collide with the
	// fresh generation sequence later.
	if wals, _ := listGens(vfs.OS(), dir, "wal-", ".log"); len(wals) != 1 || wals[0] != 1 {
		t.Fatalf("orphaned generations left behind: %v", wals)
	}
}

package wal

import (
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/vfs"
)

// The crash-point harness: record the file-operation schedule of a clean
// deterministic workload, then re-run the workload once per mutating
// operation with a simulated power loss injected exactly there, recover,
// and assert the recovered state is EXACTLY the model state after some
// prefix of the scripted operations — at least every operation that was
// acknowledged as durable before the crash, at most every operation that
// had started. This generalizes the hand-picked truncation points of the
// crash-recovery matrix: every create, write, fsync, rename, remove and
// directory sync in the whole workload (including mid-workload snapshot
// rotation and GC) becomes a crash point.

// stateMatches reports whether the index holds exactly the model's pairs.
func stateMatches(w *core.Wormhole, model map[string]string) bool {
	if int(w.Count()) != len(model) {
		return false
	}
	ok := true
	w.Scan(nil, func(k, v []byte) bool {
		if mv, present := model[string(k)]; !present || mv != string(v) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// runFaultWorkload drives the scripted ops through the store, snapshotting
// before op snapAt, and stops at the first sticky durability failure.
// acked counts ops known durable (SyncAlways: the op returned with no
// sticky error); started counts ops attempted.
func runFaultWorkload(w *core.Wormhole, st *Store, ops []crashOp, snapAt int) (acked, started int) {
	for i, op := range ops {
		if i == snapAt {
			// A crash may land inside the snapshot; its error is not a
			// durability failure for already-acked ops.
			st.Snapshot()
		}
		started = i + 1
		if op.del {
			w.Del([]byte(op.key))
		} else {
			w.Set([]byte(op.key), []byte(op.val))
		}
		if st.Err() != nil {
			return acked, started
		}
		acked = i + 1
	}
	return acked, started
}

func openFaultStore(t *testing.T, fsys vfs.FS) (*core.Wormhole, *Store) {
	t.Helper()
	return openFaultStoreOpt(t, fsys, Options{})
}

// openFaultStoreOpt opens the harness store with the format-selecting
// field of opt (SegmentBytes) layered onto the harness defaults.
func openFaultStoreOpt(t *testing.T, fsys vfs.FS, opt Options) (*core.Wormhole, *Store) {
	t.Helper()
	opt.Sync, opt.FS, opt.NoSelfHeal = SyncAlways, fsys, true
	w := backend()
	st, err := Open("/db", w, opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w.SetMutationHook(st)
	return w, st
}

// TestCrashPointMatrix runs the crash-point harness once per snapshot
// segment budget: the default (one segment at this scale — crash points
// around the footer rename), and a tiny budget so the mid-workload
// snapshot writes MANY segments — every temp write, rename and directory
// sync between segments and before the footer becomes a crash point, and
// recovery must never observe a half-visible segment set.
func TestCrashPointMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"v2-default", Options{}},
		{"v2-tiny-segments", Options{SegmentBytes: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) { runCrashPointMatrix(t, tc.opt) })
	}
}

func runCrashPointMatrix(t *testing.T, opt Options) {
	const nops = 40
	const snapAt = 20
	ops := crashScript(nops)

	// Pass 1: a clean run records the mutating-op schedule.
	var schedule []int64
	{
		inj := vfs.NewInjector(vfs.NewMemFS())
		w, st := openFaultStoreOpt(t, inj, opt)
		start := inj.Ops()
		inj.Observe = func(n int64, kind vfs.Kind, path string) {
			if n >= start && kind&vfs.KindMutating != 0 {
				schedule = append(schedule, n)
			}
		}
		if acked, _ := runFaultWorkload(w, st, ops, snapAt); acked != nops {
			t.Fatalf("clean run acked %d/%d ops", acked, nops)
		}
		inj.Observe = nil
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(schedule) < nops {
		t.Fatalf("recorded only %d crash points for %d ops", len(schedule), nops)
	}

	// Pass 2: one crash per recorded point. The workload is deterministic,
	// so op index n in the replay is the same logical point as in pass 1.
	for _, idx := range schedule {
		mem := vfs.NewMemFS()
		// Deterministically vary how much of the unsynced tail survives:
		// different crash points exercise clean cuts, torn records, and
		// whole surviving-but-unacked records.
		mem.TornTail = func(unsynced int) int {
			return int(uint64(idx) * 2654435761 % uint64(unsynced+1))
		}
		inj := vfs.NewInjector(mem)
		w, st := openFaultStoreOpt(t, inj, opt)
		inj.AddRule(vfs.Rule{Kind: vfs.KindMutating, After: idx, Count: 1, Crash: true})
		acked, started := runFaultWorkload(w, st, ops, snapAt)
		st.Close()

		mem.Restart()
		inj.ClearRules()
		w2 := backend()
		recoverOpt := opt
		recoverOpt.Sync, recoverOpt.FS, recoverOpt.NoSelfHeal = SyncAlways, inj, true
		st2, err := Open("/db", w2, recoverOpt)
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", idx, err)
		}
		matched := -1
		for k := acked; k <= started; k++ {
			if stateMatches(w2, modelAfter(ops, k)) {
				matched = k
				break
			}
		}
		if matched < 0 {
			t.Fatalf("crash@%d: recovered %d keys; state matches no scripted prefix in [acked=%d, started=%d]",
				idx, w2.Count(), acked, started)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("crash@%d: close after recovery: %v", idx, err)
		}
	}
}

// TestSnapshotENOSPCLeavesChainRecoverable fills the "disk" during a
// snapshot's temp-file write: the snapshot must fail cleanly — temp
// removed, no new snapshot published, store still writable — and the
// prior snapshot + contiguous WAL chain must recover everything.
func TestSnapshotENOSPCLeavesChainRecoverable(t *testing.T) {
	inj := vfs.NewInjector(vfs.NewMemFS())
	w, st := openFaultStore(t, inj)
	set := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w.Set([]byte{byte('a' + i/26), byte('a' + i%26)}, []byte{byte(i)})
		}
	}
	set(0, 50)
	if err := st.Snapshot(); err != nil { // snap-2 + wal-2
		t.Fatal(err)
	}
	set(50, 100)

	inj.AddRule(vfs.Rule{Kind: vfs.KindWrite, PathContains: ".snap", Err: syscall.ENOSPC})
	if err := st.Snapshot(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("snapshot on a full disk: %v", err)
	}
	inj.ClearRules()

	ents, err := inj.ReadDir("/db")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("aborted snapshot left temp file %s", e.Name())
		}
	}
	snaps, _ := listGens(inj, "/db", "snap-", ".snap")
	if len(snaps) != 1 || snaps[0] != 2 {
		t.Fatalf("snapshot generations after failed snapshot: %v (want only 2)", snaps)
	}
	// The failure was confined to the snapshot file: the append path is
	// intact and the store must not have degraded.
	if err := st.Err(); err != nil {
		t.Fatalf("sticky failure after snapshot-only ENOSPC: %v", err)
	}
	if st.Degraded() {
		t.Fatal("store degraded by a snapshot-only failure")
	}
	set(100, 120)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := backend()
	st2, err := Open("/db", w2, Options{Sync: SyncAlways, FS: inj, NoSelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if w2.Count() != 120 {
		t.Fatalf("recovered %d keys, want 120", w2.Count())
	}
}

// TestDegradedHealsAfterENOSPCClears walks the whole degraded-mode state
// machine at the wal layer: an append-path ENOSPC flips the store
// degraded (reads keep serving), the healer retries and fails while the
// fault stands, and once the fault clears the store heals back to
// writable — no reopen — with the post-heal write durable.
func TestDegradedHealsAfterENOSPCClears(t *testing.T) {
	inj := vfs.NewInjector(vfs.NewMemFS())
	w := backend()
	st, err := Open("/db", w, Options{
		Sync:    SyncAlways,
		FS:      inj,
		HealMin: time.Millisecond,
		HealMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w.SetMutationHook(st)

	w.Set([]byte("before"), []byte("v"))
	if st.Degraded() {
		t.Fatal("healthy store reports degraded")
	}

	inj.AddRule(vfs.Rule{Kind: vfs.KindWrite | vfs.KindSync, PathContains: "wal-", Err: syscall.ENOSPC})
	w.Set([]byte("poisoned"), []byte("v"))
	if !st.Degraded() {
		t.Fatal("append-path ENOSPC did not degrade the store")
	}
	if err := st.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sticky error: %v", err)
	}
	if h := st.Health(); !h.Degraded || h.Err == "" {
		t.Fatalf("health while degraded: %+v", h)
	}
	// Reads keep serving while degraded.
	if v, ok := w.Get([]byte("before")); !ok || string(v) != "v" {
		t.Fatal("read path died with the write path")
	}

	// The healer must be attempting and failing while the fault stands.
	deadline := time.Now().Add(5 * time.Second)
	for st.Health().HealAttempts < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("healer made %d attempts against a standing fault", st.Health().HealAttempts)
		}
		time.Sleep(time.Millisecond)
	}

	inj.ClearRules()
	for st.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("store did not heal after the fault cleared: %+v", st.Health())
		}
		time.Sleep(time.Millisecond)
	}

	// Writable again without a reopen, and the post-heal write is durable.
	w.Set([]byte("after-heal"), []byte("v2"))
	if err := st.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close after heal: %v", err)
	}
	w2 := backend()
	st2, err := Open("/db", w2, Options{Sync: SyncAlways, FS: inj, NoSelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := w2.Get([]byte("after-heal")); !ok {
		t.Fatal("post-heal write lost across reopen")
	}
	if _, ok := w2.Get([]byte("before")); !ok {
		t.Fatal("pre-fault write lost")
	}
}

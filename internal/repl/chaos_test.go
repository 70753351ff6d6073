package repl

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// The chaos harness: deterministic split-brain schedules over leader/
// follower pairs whose disks are MemFS instances, so "kill" is a simulated
// power loss (every unsynced byte gone, every handle dead) and "revive" is
// a restart on the durable image. Each schedule drives kill–revive–
// promote–partition transitions and asserts the three failover
// invariants:
//
//  1. At most one node ever accepts a write that survives into the final
//     state: once the new epoch's leader fences the old one, the stale
//     leader answers StatusFenced without mutating, and any write it
//     accepted during the split-brain window is corrected away when it
//     rejoins the new lineage.
//  2. No write that was synced on the leader and replicated to the
//     follower before the kill is ever lost across the failover.
//  3. After the dust settles, full ordered scans of every surviving node
//     are byte-identical.

// chaosNode is one "machine": a durable store on its own MemFS, served
// over netkv with a replication source attached.
type chaosNode struct {
	fs  *vfs.MemFS
	dir string

	st  *shard.Store
	src *Source
	srv *netkv.Server
}

// startChaosNode boots a leader node on its own in-memory disk.
// SyncAlways: a write acknowledged by this node is synced, so invariant 2
// covers exactly the acknowledged writes.
func startChaosNode(t *testing.T, fs *vfs.MemFS, dir string, sample [][]byte) *chaosNode {
	t.Helper()
	n := &chaosNode{fs: fs, dir: dir}
	n.open(t, sample)
	return n
}

// open (re)opens the node's store from its disk image and serves it.
func (n *chaosNode) open(t *testing.T, sample [][]byte) {
	t.Helper()
	st, err := shard.Open(shard.Options{
		Dir:        n.dir,
		Shards:     3,
		Sample:     sample,
		Durability: wal.Options{Sync: wal.SyncAlways, FS: n.fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(st)
	srv, err := netkv.ServeOpts("127.0.0.1:0", st, netkv.ServerOptions{
		Subscribe: src.ServeSubscriber,
		StatFill:  src.FillStat,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	n.st, n.src, n.srv = st, src, srv
}

func (n *chaosNode) leader() *leader { return &leader{st: n.st, src: n.src, srv: n.srv} }

// kill is power loss: the disk crashes first, then the process "dies"
// (close errors are what a dying process never gets to see).
func (n *chaosNode) kill() {
	n.fs.Crash()
	n.src.Close()
	n.srv.Close()
	n.st.Close()
}

// stop is a clean shutdown, disk intact.
func (n *chaosNode) stop(t *testing.T) {
	t.Helper()
	n.src.Close()
	n.srv.Close()
	if err := n.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// revive restarts the machine on its durable image.
func (n *chaosNode) revive(t *testing.T) {
	t.Helper()
	n.fs.Restart()
	n.open(t, nil) // the MANIFEST pins the partitioner; no sample needed
}

// serveStore wraps an already-owned store (a promoted follower's) as a
// leader node on the local filesystem.
func serveStore(t *testing.T, st *shard.Store) *chaosNode {
	t.Helper()
	src := NewSource(st)
	srv, err := netkv.ServeOpts("127.0.0.1:0", st, netkv.ServerOptions{
		Subscribe: src.ServeSubscriber,
		StatFill:  src.FillStat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosNode{st: st, src: src, srv: srv}
}

// expectFenced sends one write through an existing client and demands
// StatusFenced with no mutation.
func expectFenced(t *testing.T, cl *netkv.Client, st *shard.Store, op byte, key []byte) {
	t.Helper()
	before := st.Count()
	switch op {
	case netkv.OpSet:
		cl.QueueSet(key, []byte("must-not-land"))
	case netkv.OpDel:
		cl.QueueDel(key)
	}
	rs, err := cl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != netkv.StatusFenced {
		t.Fatalf("write on a fenced leader: status %d, want StatusFenced", rs[0].Status)
	}
	if st.Count() != before {
		t.Fatalf("fenced refusal mutated the index: %d -> %d keys", before, st.Count())
	}
}

// TestChaosFailoverFencing is schedule 1, the clean failover: kill the
// leader, promote the converged follower (epoch 2), write on the new
// leader, revive the old one — which still believes it leads epoch 1 and
// accepts a write (the split-brain window async replication cannot
// prevent) — then deliver the fence and watch the old leader refuse
// everything before a single further index mutation, and finally rejoin
// it to the new lineage, which corrects the split-brain write away by a
// full snapshot resync.
func TestChaosFailoverFencing(t *testing.T) {
	keys := testKeys(1200)
	afs := vfs.NewMemFS()
	a := startChaosNode(t, afs, "/a", keys)
	for _, k := range keys {
		a.st.Set(k, append([]byte("v1-"), k...))
	}
	fdir := t.TempDir()
	f := startFollower(t, a.leader(), fdir)
	waitConverged(t, a.leader(), f)
	want := dump(a.st) // every byte of this is synced (SyncAlways) and replicated

	// Kill the leader; promote the follower.
	a.kill()
	st2 := f.Promote()
	if st2 == nil {
		t.Fatal("Promote returned no store")
	}
	if e := st2.Epoch(); e != 2 {
		t.Fatalf("promoted epoch %d, want 2", e)
	}
	if err := f.Close(); err != nil { // must not close the promoted store
		t.Fatal(err)
	}
	// Invariant 2: the promoted store holds every pre-kill write.
	if !bytes.Equal(want, dump(st2)) {
		t.Fatal("promoted follower lost replicated writes")
	}
	b := serveStore(t, st2)
	defer b.srv.Close()
	defer b.src.Close()
	for _, k := range keys[:200] {
		st2.Set(k, append([]byte("v2-"), k...))
	}

	// Revive the old leader: its synced image is intact, its epoch still 1.
	a.revive(t)
	if !bytes.Equal(want, dump(a.st)) {
		t.Fatal("revived leader lost synced writes")
	}
	if e := a.st.Epoch(); e != 1 {
		t.Fatalf("revived leader epoch %d, want 1", e)
	}

	// Split-brain window: nothing has told the old leader about epoch 2
	// yet, so it still accepts writes.
	cl, err := netkv.Dial(a.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	staleKey := []byte("zz-stale-epoch1-write")
	cl.QueueSet(staleKey, []byte("accepted-then-discarded"))
	rs, err := cl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != netkv.StatusOK {
		t.Fatalf("pre-fence write on the revived leader: status %d", rs[0].Status)
	}

	// First contact with the new lineage: the fence. From here on the old
	// leader refuses writes BEFORE the index mutates.
	if err := cl.Fence(st2.Epoch()); err != nil {
		t.Fatal(err)
	}
	expectFenced(t, cl, a.st, netkv.OpSet, []byte("post-fence-set"))
	expectFenced(t, cl, a.st, netkv.OpDel, keys[0])
	// A repeated or lower fence changes nothing.
	if err := cl.Fence(1); err != nil {
		t.Fatal(err)
	}
	expectFenced(t, cl, a.st, netkv.OpSet, []byte("post-fence-set-2"))

	// Both sides advertise their epochs in OpStat.
	stat, err := cl.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if stat.Epoch != 1 || stat.FencedBy != 2 {
		t.Fatalf("stale leader stat epoch=%d fenced_by=%d, want 1/2", stat.Epoch, stat.FencedBy)
	}
	clB, err := netkv.Dial(b.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	statB, err := clB.Stat()
	clB.Close()
	if err != nil {
		t.Fatal(err)
	}
	if statB.Epoch != 2 || statB.FencedBy != 0 || statB.Role != "leader" {
		t.Fatalf("new leader stat epoch=%d fenced_by=%d role=%q, want 2/0/leader", statB.Epoch, statB.FencedBy, statB.Role)
	}

	// The fenced leader also refuses new subscribers: a replica must not
	// seed itself from a superseded lineage.
	if _, err := Start(Options{Leader: a.srv.Addr(), DialTimeout: 2 * time.Second}); err == nil {
		t.Fatal("subscription to a fenced leader succeeded")
	}

	// Rejoin the old leader as a follower of the new one. Its history
	// ([{1}]) differs from the leader's ([{1},{2,...}]), so every shard is
	// corrected by snapshot, the split-brain write is deleted, and the new
	// lineage is adopted.
	cl.Close() // the server close below waits out its connection handler
	a.stop(t)
	f2, err := Start(Options{
		Leader:      b.srv.Addr(),
		Dir:         "/a",
		Durability:  wal.Options{Sync: wal.SyncAlways, FS: afs},
		AckInterval: 10 * time.Millisecond,
		BackoffMin:  10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitConverged(t, b.leader(), f2)
	waitSnapshots(t, f2, int64(st2.NumShards()))
	// Invariant 3 is waitConverged; invariant 1's second half:
	if _, ok := f2.Store().Get(staleKey); ok {
		t.Fatal("split-brain write survived the resync")
	}
	if e := f2.Store().Epoch(); e != 2 {
		t.Fatalf("rejoined node epoch %d, want adopted 2", e)
	}
	if !shard.HistoryEqual(f2.Store().EpochHistory(), st2.EpochHistory()) {
		t.Fatal("rejoined node did not adopt the leader's history")
	}
}

// TestChaosCrashLosesUnsyncedTail is schedule 2, the same-epoch
// divergence: a SyncNone leader crashes with an unsynced WAL tail its
// follower had already applied and acked. The revived leader seals the
// torn generation and rotates; on reconnect the epoch histories still
// match (no promotion happened), so the follower offers a tail resume —
// and the leader, finding the offered position beyond its sealed
// history, corrects the follower down by snapshot. Acked-but-unsynced
// writes are the one class failover may lose, and the harness pins
// exactly where the line sits: everything up to the leader's last sync
// survives, everything past it is rolled back on both nodes identically.
func TestChaosCrashLosesUnsyncedTail(t *testing.T) {
	keys := testKeys(1000)
	lfs := vfs.NewMemFS()
	st, err := shard.Open(shard.Options{
		Dir:        "/l",
		Shards:     3,
		Sample:     keys,
		Durability: wal.Options{Sync: wal.SyncNone, FS: lfs},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &chaosNode{fs: lfs, dir: "/l", st: st}
	n.src = NewSource(st)
	n.srv, err = netkv.ServeOpts("127.0.0.1:0", st, netkv.ServerOptions{
		Subscribe: n.src.ServeSubscriber,
		StatFill:  n.src.FillStat,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Durable prefix: 600 keys, then Snapshot() (synced, and rotates the
	// WAL). Everything after is an unsynced tail in generation 2.
	for _, k := range keys[:600] {
		n.st.Set(k, append([]byte("durable-"), k...))
	}
	if err := n.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wantDurable := dump(n.st)
	for _, k := range keys[600:] {
		n.st.Set(k, append([]byte("volatile-"), k...))
	}

	// The follower applies and acks the whole thing, tail included (the
	// sender's FlushBuffered makes buffered leader records streamable).
	fdir := t.TempDir()
	f := startFollower(t, n.leader(), fdir)
	waitConverged(t, n.leader(), f)
	if got := f.Store().Count(); got != int64(len(keys)) {
		t.Fatalf("follower applied %d keys, want %d", got, len(keys))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Power loss: the unsynced tail evaporates.
	n.kill()
	n.revive(t)
	if !bytes.Equal(wantDurable, dump(n.st)) {
		t.Fatal("revived leader does not match its last synced image")
	}

	// Reconnect. Same lineage, but the follower's position is beyond the
	// sealed history: the leader must force the snapshot path, and the
	// follower must roll the lost tail back.
	f2 := startFollower(t, n.leader(), fdir)
	defer f2.Close()
	// Fresh post-crash history proves the stream is live again afterwards.
	for _, k := range keys[:100] {
		n.st.Set(k, append([]byte("after-"), k...))
	}
	waitConverged(t, n.leader(), f2)
	if f2.SnapshotsApplied() == 0 {
		t.Fatal("diverged follower reconverged without a snapshot correction")
	}
	if _, ok := f2.Store().Get(keys[999]); ok {
		t.Fatal("follower kept a write the leader lost in the crash")
	}
	n.stop(t)
}

// TestChaosPartitionAutoPromote is schedule 3: a network partition (the
// leader's server goes unreachable; its store keeps running and taking
// writes) trips the follower's heartbeat timeout, auto-promotion bumps
// the epoch, and a MultiClient configured with both addresses fails over
// to the new leader once the old one is fenced — while the old leader's
// partition-window writes are corrected away when it rejoins.
func TestChaosPartitionAutoPromote(t *testing.T) {
	keys := testKeys(800)
	ldir := t.TempDir()
	a := newLeader(t, ldir, keys)
	for _, k := range keys {
		a.st.Set(k, append([]byte("v1-"), k...))
	}

	promoted := make(chan *shard.Store, 1)
	f, err := Start(Options{
		Leader:           a.srv.Addr(),
		Dir:              t.TempDir(),
		AckInterval:      5 * time.Millisecond,
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		AutoPromote:      true,
		HeartbeatTimeout: 200 * time.Millisecond,
		OnPromote:        func(st *shard.Store) { promoted <- st },
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, a, f)

	// Partition: the follower can no longer reach the leader, but the
	// leader process is alive and writing — the genuine split-brain shape.
	a.src.DisconnectAll()
	a.srv.Close()
	splitKey := []byte("zz-split-brain-write")
	a.st.Set(splitKey, []byte("partition-window"))

	var st2 *shard.Store
	select {
	case st2 = <-promoted:
	case <-time.After(10 * time.Second):
		t.Fatal("auto-promotion never fired")
	}
	if e := st2.Epoch(); e != 2 {
		t.Fatalf("auto-promoted epoch %d, want 2", e)
	}
	// A manual Promote after the automatic one is a no-op returning the
	// same store, not a second bump.
	if again := f.Promote(); again != st2 {
		t.Fatal("manual Promote after auto-promotion returned a different store")
	}
	if e := st2.Epoch(); e != 2 {
		t.Fatalf("second Promote bumped the epoch to %d", e)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b := serveStore(t, st2)
	defer b.srv.Close()
	defer b.src.Close()

	// Partition heals: the old leader's server comes back (same store,
	// new listener), and the new leader fences it — the whkv auto-promote
	// hook's first act.
	srvA2, err := netkv.ServeOpts("127.0.0.1:0", a.st, netkv.ServerOptions{
		Subscribe: a.src.ServeSubscriber,
		StatFill:  a.src.FillStat,
	})
	if err != nil {
		t.Fatal(err)
	}
	clA, err := netkv.Dial(srvA2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := clA.Fence(st2.Epoch()); err != nil {
		t.Fatal(err)
	}
	expectFenced(t, clA, a.st, netkv.OpSet, []byte("post-heal-stale-write"))
	clA.Close()

	// The failover-aware client prefers the old address, gets
	// StatusFenced, rotates, and lands the write on the new leader.
	mc, err := netkv.DialMulti(srvA2.Addr(), b.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	afterKey := []byte("after-failover-write")
	if err := mc.Set(afterKey, []byte("landed")); err != nil {
		t.Fatal(err)
	}
	if mc.Addr() != b.srv.Addr() {
		t.Fatalf("MultiClient settled on %s, want the new leader %s", mc.Addr(), b.srv.Addr())
	}
	if _, ok := st2.Get(afterKey); !ok {
		t.Fatal("failover write missing on the new leader")
	}
	if _, ok := a.st.Get(afterKey); ok {
		t.Fatal("failover write landed on the fenced leader")
	}

	// The old leader rejoins the new lineage; its partition-window write
	// is corrected away and the final scans are byte-identical.
	srvA2.Close()
	a.src.Close()
	if err := a.st.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Start(Options{
		Leader:      b.srv.Addr(),
		Dir:         ldir,
		AckInterval: 10 * time.Millisecond,
		BackoffMin:  10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitConverged(t, b.leader(), f2)
	if _, ok := f2.Store().Get(splitKey); ok {
		t.Fatal("partition-window write survived the rejoin")
	}
	// The epoch moves when the resync adopts the leader's lineage, just
	// after the last shard's correction that convergence already shows.
	select {
	case <-f2.adopted:
	case <-time.After(15 * time.Second):
		t.Fatal("rejoined node never adopted the leader's lineage")
	}
	if e := f2.Store().Epoch(); e != 2 {
		t.Fatalf("rejoined node epoch %d, want 2", e)
	}
}

// --- Follower lifecycle edges, all meant for -race ---

// TestPromoteTwice: the second Promote returns the same store and the
// epoch is bumped exactly once.
func TestPromoteTwice(t *testing.T) {
	keys := testKeys(300)
	ld := newLeader(t, t.TempDir(), keys)
	for _, k := range keys {
		ld.st.Set(k, k)
	}
	f := startFollower(t, ld, t.TempDir())
	waitConverged(t, ld, f)
	st1 := f.Promote()
	st2 := f.Promote()
	if st1 == nil || st1 != st2 {
		t.Fatalf("Promote twice: %p then %p", st1, st2)
	}
	if e := st1.Epoch(); e != 2 {
		t.Fatalf("epoch %d after double promote, want 2", e)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteAfterClose: a closed follower's store is gone; Promote must
// refuse with nil, not hand out a closed store.
func TestPromoteAfterClose(t *testing.T) {
	keys := testKeys(100)
	ld := newLeader(t, t.TempDir(), keys)
	f := startFollower(t, ld, t.TempDir())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := f.Promote(); st != nil {
		t.Fatal("Promote after Close returned a store")
	}
}

// TestCloseDuringSnapshotMerge closes the follower while a snapshot
// catch-up is mid-merge: no deadlock, no panic, and the half-merged
// shards are reported by CatchingUp.
func TestCloseDuringSnapshotMerge(t *testing.T) {
	keys := testKeys(4000)
	ld := newLeader(t, t.TempDir(), keys)
	val := bytes.Repeat([]byte("x"), 512)
	for _, k := range keys {
		ld.st.Set(k, val)
	}
	if err := ld.st.Snapshot(); err != nil { // fresh follower => snapshot path
		t.Fatal(err)
	}
	f := startFollower(t, ld, t.TempDir())
	// Close the instant a merge is observably in flight; if the transfer
	// outruns the poll, closing after it is still a valid (quieter) run.
	deadline := time.Now().Add(5 * time.Second)
	for len(f.CatchingUp()) == 0 && f.SnapshotsApplied() == 0 && time.Now().Before(deadline) {
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := f.Promote(); st != nil {
		t.Fatal("Promote after Close returned a store")
	}
}

// TestAutoPromoteRacesManualPromote arms a hair-trigger auto-promote,
// kills the leader, and calls Promote manually from several goroutines at
// once: exactly one promotion must happen (epoch 2, one store), whoever
// wins.
func TestAutoPromoteRacesManualPromote(t *testing.T) {
	keys := testKeys(200)
	ld := newLeader(t, t.TempDir(), keys)
	for _, k := range keys {
		ld.st.Set(k, k)
	}
	var autoStores sync.Map
	f, err := Start(Options{
		Leader:           ld.srv.Addr(),
		Dir:              t.TempDir(),
		AckInterval:      5 * time.Millisecond,
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       20 * time.Millisecond,
		AutoPromote:      true,
		HeartbeatTimeout: 50 * time.Millisecond,
		OnPromote:        func(st *shard.Store) { autoStores.Store(st, true) },
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, ld, f)
	ld.src.Close()
	ld.srv.Close()

	var wg sync.WaitGroup
	stores := make([]*shard.Store, 4)
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			stores[i] = f.Promote()
		}(i)
	}
	wg.Wait()
	var st *shard.Store
	for _, s := range stores {
		if s == nil {
			t.Fatal("concurrent Promote returned nil before Close")
		}
		if st == nil {
			st = s
		} else if s != st {
			t.Fatal("concurrent Promotes returned different stores")
		}
	}
	autoStores.Range(func(k, _ any) bool {
		if k.(*shard.Store) != st {
			t.Fatal("auto-promotion returned a different store")
		}
		return true
	})
	if e := st.Epoch(); e != 2 {
		t.Fatalf("epoch %d after racing promotions, want exactly one bump to 2", e)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnectRetryLoopShape mirrors whkv's -connect-timeout contract at
// the package level: Start against a dead address fails fast with a dial
// error the retry loop can keep probing, and succeeds the moment a
// leader appears.
func TestConnectRetryLoopShape(t *testing.T) {
	if _, err := Start(Options{Leader: "127.0.0.1:1", DialTimeout: time.Second}); err == nil {
		t.Fatal("Start against a dead address succeeded")
	}
	keys := testKeys(100)
	ld := newLeader(t, t.TempDir(), keys)
	for i := 0; i < 20; i++ { // the whkv loop: retry until the leader is up
		f, err := Start(Options{Leader: ld.srv.Addr()})
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		f.Close()
		return
	}
	t.Fatal("retry loop never connected to a live leader")
}

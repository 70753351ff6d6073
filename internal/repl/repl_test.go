package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// testKeys returns n keys spread over the keyspace so a sampled
// partitioner actually splits them across shards.
func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%07d", i*7919%n))
	}
	return keys
}

type leader struct {
	st  *shard.Store
	src *Source
	srv *netkv.Server
}

func newLeader(t *testing.T, dir string, sample [][]byte) *leader {
	t.Helper()
	st, err := shard.Open(shard.Options{Dir: dir, Shards: 3, Sample: sample})
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
	t.Cleanup(func() {
		src.Close()
		srv.Close()
		st.Close()
	})
	return &leader{st: st, src: src, srv: srv}
}

// dump serializes a store's full ordered scan unambiguously, for
// byte-identical comparison between leader and follower.
func dump(st *shard.Store) []byte {
	var b []byte
	st.Scan(nil, func(k, v []byte) bool {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
		return true
	})
	return b
}

// waitConverged polls until the follower's full-index scan is
// byte-identical to the leader's.
func waitConverged(t *testing.T, ld *leader, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		want := dump(ld.st)
		if bytes.Equal(want, dump(f.Store())) {
			// The leader may have changed between the two dumps when a
			// writer is still running; callers only converge on a
			// quiescent leader, so one stable comparison is enough.
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not converge: leader %d keys, follower %d keys (applied %v, leader end %v)",
				ld.st.Count(), f.Store().Count(), f.Applied(), f.LeaderEnd())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitSnapshots waits for the follower's snapshot counter to reach want:
// scan convergence is observable an instant before the snapshot-end
// message (which bumps the counter) is processed, so asserting the
// counter right at convergence would race.
func waitSnapshots(t *testing.T, f *Follower, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.SnapshotsApplied() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower applied %d snapshot transfers, want %d", f.SnapshotsApplied(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func startFollower(t *testing.T, ld *leader, dir string) *Follower {
	t.Helper()
	f, err := Start(Options{
		Leader:      ld.srv.Addr(),
		Dir:         dir,
		AckInterval: 10 * time.Millisecond,
		BackoffMin:  10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestReplicationBasic attaches a follower to a leader with history (tail
// replay from genesis), keeps writing — including deletes and updates —
// and checks byte-identical convergence without any snapshot transfer.
func TestReplicationBasic(t *testing.T) {
	keys := testKeys(4000)
	ld := newLeader(t, t.TempDir(), keys)
	for _, k := range keys[:2000] {
		ld.st.Set(k, append([]byte("v1-"), k...))
	}
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	for _, k := range keys[2000:] {
		ld.st.Set(k, append([]byte("v2-"), k...))
	}
	for i := 0; i < len(keys); i += 4 {
		ld.st.Del(keys[i])
	}
	for i := 1; i < len(keys); i += 4 {
		ld.st.Set(keys[i], []byte("updated"))
	}
	waitConverged(t, ld, f)
	if n := f.SnapshotsApplied(); n != 0 {
		t.Fatalf("tail replay took %d snapshot transfers", n)
	}
	if f.Store().Durable() != true {
		t.Fatal("durable follower expected")
	}
}

// TestVolatileFollower replicates into a follower with no directory.
func TestVolatileFollower(t *testing.T) {
	keys := testKeys(1000)
	ld := newLeader(t, t.TempDir(), keys)
	for _, k := range keys {
		ld.st.Set(k, k)
	}
	f, err := Start(Options{Leader: ld.srv.Addr(), AckInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Store().Durable() {
		t.Fatal("volatile follower has a WAL")
	}
	waitConverged(t, ld, f)
}

// TestFollowerRestartTailReplay is the convergence criterion's first half:
// kill the follower mid-stream, keep writing through the leader, restart
// the follower from its directory, and the durable position must resume
// the tail — byte-identical convergence with zero snapshot transfers.
func TestFollowerRestartTailReplay(t *testing.T) {
	keys := testKeys(6000)
	ld := newLeader(t, t.TempDir(), keys)
	fdir := t.TempDir()
	f := startFollower(t, ld, fdir)

	// Write while the follower streams, and kill it mid-stream: once it
	// has demonstrably applied some records but the writer is not done.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, k := range keys[:4000] {
			ld.st.Set(k, append([]byte("a-"), k...))
		}
	}()
	for f.RecordsApplied() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("mid-stream close: %v", err)
	}
	<-done

	// More leader history while the follower is down.
	for _, k := range keys[4000:] {
		ld.st.Set(k, append([]byte("b-"), k...))
	}
	for i := 2; i < len(keys); i += 5 {
		ld.st.Del(keys[i])
	}

	f2 := startFollower(t, ld, fdir)
	defer f2.Close()
	waitConverged(t, ld, f2)
	if n := f2.SnapshotsApplied(); n != 0 {
		t.Fatalf("restart with surviving positions took %d snapshot transfers", n)
	}
}

// TestFollowerCatchupViaSnapshot is the criterion's second half: while the
// follower is down the leader writes, deletes, and snapshots (GC'ing the
// generations the follower's position points into), so the restarted
// follower must be forced onto the snapshot path — and still converge
// byte-identically, including the deletes it never saw as records.
func TestFollowerCatchupViaSnapshot(t *testing.T) {
	keys := testKeys(5000)
	ld := newLeader(t, t.TempDir(), keys)
	fdir := t.TempDir()
	for _, k := range keys[:2500] {
		ld.st.Set(k, append([]byte("a-"), k...))
	}
	f := startFollower(t, ld, fdir)
	waitConverged(t, ld, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// History the follower misses: updates, deletes, then a snapshot that
	// garbage-collects the WAL generations its position points into, then
	// a post-snapshot tail.
	for _, k := range keys[2500:4000] {
		ld.st.Set(k, append([]byte("b-"), k...))
	}
	for i := 0; i < 2500; i += 2 {
		ld.st.Del(keys[i])
	}
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[4000:] {
		ld.st.Set(k, append([]byte("c-"), k...))
	}

	f2 := startFollower(t, ld, fdir)
	defer f2.Close()
	waitConverged(t, ld, f2)
	waitSnapshots(t, f2, 1)
}

// TestFreshFollowerBelowGCHorizon subscribes a brand-new follower to a
// leader whose generation 1 is long gone: every shard must arrive by
// snapshot plus tail.
func TestFreshFollowerBelowGCHorizon(t *testing.T) {
	keys := testKeys(3000)
	ld := newLeader(t, t.TempDir(), keys)
	for _, k := range keys[:2000] {
		ld.st.Set(k, k)
	}
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2000:] {
		ld.st.Set(k, k)
	}
	// wal-1 must actually be gone, or this test is vacuous.
	for i := 0; i < ld.st.NumShards(); i++ {
		if ld.st.WAL(i).HasWAL(1) {
			t.Fatalf("shard %d still has generation 1 after a covering snapshot", i)
		}
	}
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	waitConverged(t, ld, f)
	waitSnapshots(t, f, int64(ld.st.NumShards()))
}

// TestFrameOverBufferSnapshot catches a fresh follower up by snapshot
// from shards whose chunks are larger than the follower's 64 KiB reader,
// so every chunk bypasses that buffer, and checks the result byte for
// byte.
func TestFrameOverBufferSnapshot(t *testing.T) {
	keys := testKeys(900)
	ld := newLeader(t, t.TempDir(), keys)
	perShard := make([]int, ld.st.NumShards())
	for i, k := range keys {
		v := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5a}, 342) // 1,026 bytes
		ld.st.Set(k, append(v, k...))
		perShard[ld.st.ShardOf(k)] += len(v) + len(k)
	}
	for sh, n := range perShard {
		if n < 2*(64<<10) {
			t.Fatalf("shard %d holds %d value bytes: its snapshot chunk would fit the follower's buffer", sh, n)
		}
	}
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ld.st.Set(keys[0], []byte("after the snapshot"))
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	waitConverged(t, ld, f)
	waitSnapshots(t, f, int64(ld.st.NumShards()))
}

// TestDivergedFollowerBeyondLeaderHistory covers the third unreachable-
// position case: a leader crash loses an unsynced WAL suffix the follower
// had already applied, and the leader has never snapshotted — so there is
// no snapshot file anywhere. The revived leader must still correct the
// follower (live-scan snapshot + tail), not silently skip the re-streamed
// records against the follower's stale position.
func TestDivergedFollowerBeyondLeaderHistory(t *testing.T) {
	keys := testKeys(3000)
	ldir := t.TempDir()
	ld := newLeader(t, ldir, keys)
	fdir := t.TempDir()
	for _, k := range keys {
		ld.st.Set(k, append([]byte("v1-"), k...))
	}
	f := startFollower(t, ld, fdir)
	waitConverged(t, ld, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader "crashes" losing the last third of every shard's WAL:
	// close it and truncate the files mid-record; recovery keeps the valid
	// prefix, leaving the follower's applied position beyond history.
	ld.src.Close()
	ld.srv.Close()
	if err := ld.st.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		p := filepath.Join(ldir, fmt.Sprintf("shard-%03d", i), fmt.Sprintf("wal-%016x.log", 1))
		fi, err := os.Stat(p)
		if err != nil {
			if i == 0 {
				t.Fatal(err)
			}
			break
		}
		if err := os.Truncate(p, fi.Size()*2/3); err != nil {
			t.Fatal(err)
		}
	}
	ld2 := newLeader(t, ldir, keys)
	// A little fresh history on the revived leader, small enough that its
	// end positions stay below the follower's stale ones.
	for _, k := range keys[:100] {
		ld2.st.Set(k, append([]byte("v2-"), k...))
	}

	f2 := startFollower(t, ld2, fdir)
	defer f2.Close()
	waitConverged(t, ld2, f2)
	waitSnapshots(t, f2, 1) // the correction must go through the snapshot path
}

// TestPromote detaches a follower and checks the store is the caller's:
// subsequent leader writes no longer arrive, local writes work, and the
// promoted store reopens standalone.
func TestPromote(t *testing.T) {
	keys := testKeys(1000)
	ld := newLeader(t, t.TempDir(), keys)
	fdir := t.TempDir()
	for _, k := range keys {
		ld.st.Set(k, k)
	}
	f := startFollower(t, ld, fdir)
	waitConverged(t, ld, f)

	st := f.Promote()
	if st == nil {
		t.Fatal("Promote returned no store")
	}
	before := st.Count()
	ld.st.Set([]byte("zzz-after-promotion"), []byte("x"))
	time.Sleep(50 * time.Millisecond)
	if st.Count() != before {
		t.Fatal("promoted store still applies leader writes")
	}
	st.Set([]byte("local-write"), []byte("y"))
	if v, ok := st.Get([]byte("local-write")); !ok || string(v) != "y" {
		t.Fatal("promoted store rejects local writes")
	}
	if err := f.Close(); err != nil { // must not close the promoted store
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := shard.Open(shard.Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Get([]byte("local-write")); !ok {
		t.Fatal("promoted store lost its local write across reopen")
	}
}

// TestSubscribeRefusedByPlainServer checks a non-leader answers an
// OpSubscribe batch with StatusNotFound and the follower surfaces that
// refusal immediately — from the response's first bytes, not by burning
// the whole handshake deadline on a frame that will never grow.
func TestSubscribeRefusedByPlainServer(t *testing.T) {
	st := shard.New(shard.Options{Shards: 2})
	srv, err := netkv.Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	_, err = Start(Options{Leader: srv.Addr(), DialTimeout: 10 * time.Second})
	if err == nil {
		t.Fatal("subscription to a non-replicating server succeeded")
	}
	if !strings.Contains(err.Error(), "not a replication leader") {
		t.Fatalf("refusal surfaced as %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("refusal took %v: stalled on the deadline instead of parsing the frame", el)
	}
}

// TestHandshakeShardMismatch checks a follower recovered with a different
// shard count is refused rather than silently misrouted.
func TestHandshakeShardMismatch(t *testing.T) {
	keys := testKeys(500)
	ld := newLeader(t, t.TempDir(), keys) // 3 shards
	fdir := t.TempDir()
	other, err := shard.Open(shard.Options{Dir: fdir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	other.Set([]byte("k"), []byte("v"))
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(Options{Leader: ld.srv.Addr(), Dir: fdir}); err == nil {
		t.Fatal("mismatched shard count accepted")
	}
}

// TestFollowerReconnects kills the leader-side connection and checks the
// follower re-subscribes and keeps converging.
func TestFollowerReconnects(t *testing.T) {
	keys := testKeys(2000)
	ld := newLeader(t, t.TempDir(), keys)
	for _, k := range keys[:1000] {
		ld.st.Set(k, k)
	}
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	waitConverged(t, ld, f)

	// Sever every subscriber from the leader side; the follower's backoff
	// loop must re-handshake from its applied positions and resume.
	ld.src.DisconnectAll()
	for _, k := range keys[1000:] {
		ld.st.Set(k, k)
	}
	waitConverged(t, ld, f)
	if n := f.SnapshotsApplied(); n != 0 {
		t.Fatalf("reconnect resumed via %d snapshot transfers instead of the tail", n)
	}
}

// TestStreamingWALGenerationRotation writes across a leader snapshot while
// a follower streams, so batches cross a generation rotation live.
func TestStreamingWALGenerationRotation(t *testing.T) {
	keys := testKeys(4000)
	ld := newLeader(t, t.TempDir(), keys)
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	for _, k := range keys[:2000] {
		ld.st.Set(k, k)
	}
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2000:] {
		ld.st.Set(k, k)
	}
	waitConverged(t, ld, f)
}

// TestPositionSurvivesInWAL checks the follower's applied position is in
// its own WAL: recovery reports it without any replication running.
func TestPositionSurvivesInWAL(t *testing.T) {
	keys := testKeys(1000)
	ld := newLeader(t, t.TempDir(), keys)
	fdir := t.TempDir()
	for _, k := range keys {
		ld.st.Set(k, k)
	}
	f := startFollower(t, ld, fdir)
	waitConverged(t, ld, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := shard.Open(shard.Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	found := 0
	for i := 0; i < st.NumShards(); i++ {
		if p, ok := st.WAL(i).RecoveredPosition(); ok {
			if p.Gen == 0 {
				t.Fatalf("shard %d recovered zero position", i)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("no shard recovered a replication position")
	}
}

// TestSubscribePayloadRoundTrip exercises the handshake encoding directly:
// epoch, leadership history, and positions all survive the round trip, and
// malformed payloads are rejected rather than misread.
func TestSubscribePayloadRoundTrip(t *testing.T) {
	histories := [][]shard.EpochEntry{
		nil,
		{{Epoch: 1}},
		{{Epoch: 1}, {Epoch: 3, Start: []wal.Position{{Gen: 2, Seq: 41}, {Gen: 1, Seq: 7}}}},
	}
	for hi, positions := range [][]wal.Position{
		nil,
		{{Gen: 1, Seq: 0}},
		{{Gen: 3, Seq: 77}, {Gen: 1, Seq: 0}, {Gen: 9, Seq: 1 << 40}},
	} {
		hist := histories[hi]
		epoch := uint64(hi * 5)
		gotEpoch, gotHist, got, _, err := decodeSubscribe(encodeSubscribe(epoch, hist, positions, nil))
		if err != nil {
			t.Fatalf("%v: %v", positions, err)
		}
		if gotEpoch != epoch {
			t.Fatalf("epoch round trip %d -> %d", epoch, gotEpoch)
		}
		if !shard.HistoryEqual(gotHist, hist) {
			t.Fatalf("history round trip %v -> %v", hist, gotHist)
		}
		if len(got) != len(positions) {
			t.Fatalf("round trip %v -> %v", positions, got)
		}
		for i := range got {
			if got[i] != positions[i] {
				t.Fatalf("round trip %v -> %v", positions, got)
			}
		}
	}
	if _, _, _, _, err := decodeSubscribe([]byte("WHRPX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	full := encodeSubscribe(7, histories[2], []wal.Position{{Gen: 1, Seq: 2}},
		[]snapResume{{shard: 0, pos: wal.Position{Gen: 1, Seq: 1}, cursor: []byte("k\x00")}})
	for cut := 1; cut < len(full); cut++ {
		if _, _, _, _, err := decodeSubscribe(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestMessageFraming exercises writeMsg/readMsg over a pipe.
func TestMessageFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		w := bufio.NewWriter(a)
		writeMsg(w, msgAck, appendPosMsg(nil, 4, 2, wal.Position{Gen: 5, Seq: 99}))
	}()
	typ, body, _, err := readMsg(bufio.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgAck {
		t.Fatalf("type %d", typ)
	}
	e, sh, p, err := decodePosMsg(body)
	if err != nil || e != 4 || sh != 2 || p != (wal.Position{Gen: 5, Seq: 99}) {
		t.Fatalf("decoded %d %d %v %v", e, sh, p, err)
	}
}

// TestLeaderStatExposesLag checks OpStat reports follower lag fields.
func TestLeaderStatExposesLag(t *testing.T) {
	keys := testKeys(1000)
	ld := newLeader(t, t.TempDir(), keys)
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	for _, k := range keys {
		ld.st.Set(k, k)
	}
	waitConverged(t, ld, f)
	cl, err := netkv.Dial(ld.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "leader" {
		t.Fatalf("role %q", st.Role)
	}
	if len(st.Followers) != 1 {
		t.Fatalf("%d followers in stat", len(st.Followers))
	}
	if st.Followers[0].LagRecords < 0 {
		t.Fatalf("converged follower lag %d", st.Followers[0].LagRecords)
	}
	if !st.Durable || st.Shards != 3 {
		t.Fatalf("stat base fields: %+v", st)
	}
}

// TestFollowerWALGC ensures the on-disk layout a follower leaves behind is
// recoverable even when the leader directory is gone entirely (disaster
// promotion): the store opens and serves.
func TestFollowerWALGC(t *testing.T) {
	keys := testKeys(1500)
	ldir := t.TempDir()
	ld := newLeader(t, ldir, keys)
	fdir := t.TempDir()
	for _, k := range keys {
		ld.st.Set(k, append([]byte("v-"), k...))
	}
	f := startFollower(t, ld, fdir)
	waitConverged(t, ld, f)
	want := dump(ld.st)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ld.src.Close()
	ld.srv.Close()
	ld.st.Close()
	if err := os.RemoveAll(ldir); err != nil {
		t.Fatal(err)
	}
	st, err := shard.Open(shard.Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := dump(st); !bytes.Equal(want, got) {
		t.Fatal("follower state diverged from leader after standalone reopen")
	}
	// Its own snapshots GC its own WAL, independent of any leader.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumShards(); i++ {
		dirEnts, err := os.ReadDir(filepath.Join(fdir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range dirEnts {
			if e.Name() == "wal-0000000000000001.log" {
				t.Fatalf("shard %d kept generation 1 after covering snapshot", i)
			}
		}
	}
}

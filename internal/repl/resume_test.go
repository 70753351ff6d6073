package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/wal"
)

// urlKeys returns n keys sharing long common prefixes — the keyset shape
// the prefix-compressed snapshot wire format is built for.
func urlKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("https://example.com/users/%07d/profile", i*7919%n))
	}
	return keys
}

// chunkPairCount reads the pair count a msgSnapChunk body's segment image
// carries in its trailer.
func chunkPairCount(body []byte) int64 {
	return int64(binary.LittleEndian.Uint32(body[len(body)-8:]))
}

// TestFreshFollowerCatchUpCompressedChunks starts a fresh follower below
// the leader's GC horizon, forcing the full snapshot catch-up path, and
// checks two things: convergence is byte-identical, and the snapshot
// chunks on the wire are smaller than the raw pairs they carry — the
// prefix compression actually pays on a common-prefix keyset instead of
// just reshuffling bytes.
func TestFreshFollowerCatchUpCompressedChunks(t *testing.T) {
	keys := urlKeys(4000)
	ld := newLeader(t, t.TempDir(), keys)
	var rawBytes int64
	for _, k := range keys {
		v := []byte("v-" + string(k[len(k)-15:]))
		ld.st.Set(k, v)
		rawBytes += int64(len(k) + len(v))
	}
	// Rotate every shard's WAL so the follower's genesis position falls
	// below the GC horizon: tail replay is impossible, snapshot mandatory.
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var chunkBytes, chunkPairs atomic.Int64
	ld.src.SetStreamFault(func(typ byte, body []byte) (FaultAction, time.Duration) {
		if typ == msgSnapChunk {
			chunkBytes.Add(int64(len(body) - 2))
			chunkPairs.Add(chunkPairCount(body))
		}
		return FaultPass, 0
	})
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	waitConverged(t, ld, f)
	waitSnapshots(t, f, int64(ld.st.NumShards()))
	ld.src.SetStreamFault(nil)
	if got := chunkPairs.Load(); got != int64(len(keys)) {
		t.Fatalf("snapshot chunks carried %d pairs, leader has %d", got, len(keys))
	}
	if cb := chunkBytes.Load(); cb >= rawBytes {
		t.Fatalf("compressed chunks (%d bytes) not smaller than raw pairs (%d bytes)", cb, rawBytes)
	} else {
		t.Logf("chunk bytes %d vs raw %d (%.0f%%)", cb, rawBytes, 100*float64(cb)/float64(rawBytes))
	}
}

// TestSnapshotCatchUpResumesAfterDisconnect kills the replication
// connection partway through a snapshot catch-up and checks the retry is
// incremental: the reconnected stream must NOT restart every shard's
// snapshot from its first key — the follower advertises its per-shard
// scan cursors in the new handshake and the leader resumes each scan
// from there, so the second connection ships strictly fewer pairs than
// the full keyspace. Convergence must still be byte-identical.
func TestSnapshotCatchUpResumesAfterDisconnect(t *testing.T) {
	keys := urlKeys(3000)
	ld := newLeader(t, t.TempDir(), keys)
	pad := bytes.Repeat([]byte("x"), 1<<10)
	for _, k := range keys {
		ld.st.Set(k, append(append([]byte(nil), pad...), k...))
	}
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Drop the connection at the 5th snapshot chunk. Chunks before it were
	// flushed to the socket and survive the graceful close; the dropped
	// chunk and everything after must arrive via the resumed stream.
	var chunks, firstPairs, secondPairs atomic.Int64
	var dropped atomic.Bool
	ld.src.SetStreamFault(func(typ byte, body []byte) (FaultAction, time.Duration) {
		if typ != msgSnapChunk {
			return FaultPass, 0
		}
		n := chunkPairCount(body)
		if !dropped.Load() {
			if chunks.Add(1) == 5 {
				dropped.Store(true)
				return FaultDropConn, 0
			}
			firstPairs.Add(n)
			return FaultPass, 0
		}
		secondPairs.Add(n)
		return FaultPass, 0
	})
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	waitConverged(t, ld, f)
	ld.src.SetStreamFault(nil)
	if !dropped.Load() {
		t.Fatalf("snapshot finished in under 5 chunks (%d pairs) — grow the dataset", firstPairs.Load())
	}
	first, second := firstPairs.Load(), secondPairs.Load()
	if second == 0 {
		t.Fatal("no snapshot chunks on the resumed connection")
	}
	if second >= int64(len(keys)) {
		t.Fatalf("resumed catch-up re-sent the whole keyspace: %d pairs on conn 2, %d total (conn 1 shipped %d)",
			second, len(keys), first)
	}
	t.Logf("conn 1 shipped %d pairs, conn 2 shipped %d of %d total", first, second, len(keys))
}

// sharedKeys yields n ascending 1 KiB keys, each sharing 1,023 bytes with
// its neighbour (one byte of a 4-byte counter differs), through one
// reused buffer: the keyset on which a chunk's decoded keys outgrow its
// image a hundredfold.
func sharedKeys(n int, fn func(k, v []byte) bool) {
	key := bytes.Repeat([]byte{'z'}, 1<<10)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(key[len(key)-4:], uint32(i))
		if !fn(key, key[len(key)-4:]) {
			return
		}
	}
}

// amplifyingChunk returns a CRC-valid msgSnapChunk body of n keys, each
// the previous key plus one byte: every entry grafts the whole previous
// key for about five bytes on the wire, so the decoded keys grow with
// the square of the chunk's size.
func amplifyingChunk(n int) []byte {
	var seg wal.SegmentBuilder
	key := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		key = append(key, 'a')
		seg.Add(key, nil)
	}
	return append([]byte{0, 0}, seg.Finish()...)
}

// TestSnapChunkAmplificationRejected feeds the follower's chunk decoder a
// 45 KB chunk whose keys would decode to 40 MB: it must refuse the chunk
// without allocating much past its key budget.
func TestSnapChunkAmplificationRejected(t *testing.T) {
	body := amplifyingChunk(9000)
	if len(body) > 48<<10 {
		t.Fatalf("amplifying chunk is %d bytes, want about 45 KB", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, keys, _, err := decodeSnapChunk(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded %d keys from an amplifying chunk", len(keys))
	}
	if !errors.Is(err, errProto) {
		t.Fatalf("refusal %v is not a protocol error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxChunkKeyBytes+1<<20 {
		t.Fatalf("refusing the chunk allocated %d bytes, budget %d", alloc, maxChunkKeyBytes)
	}
	// A prefix of the same ladder that fits the budget decodes.
	if _, keys, _, err := decodeSnapChunk(amplifyingChunk(2000)); err != nil || len(keys) != 2000 {
		t.Fatalf("in-budget ladder: %d keys, %v", len(keys), err)
	}
}

// TestSnapChunksFitFollowerBudget cuts 12 MiB of long shared-prefix keys,
// and then one key larger than the whole budget, into chunks the way the
// leader does: every chunk must decode under the follower's own budget,
// in order and complete.
func TestSnapChunksFitFollowerBudget(t *testing.T) {
	const n = 12 << 10
	check := func(scan func(fn func(k, v []byte) bool), want int) {
		t.Helper()
		var pairs, chunks int
		var last []byte
		ok := snapChunks(7, scan, func(body []byte) bool {
			shard, keys, vals, err := decodeSnapChunk(body)
			if err != nil || shard != 7 || len(keys) != len(vals) {
				t.Fatalf("chunk %d: shard %d, %d keys, err %v", chunks, shard, len(keys), err)
			}
			if last != nil && bytes.Compare(last, keys[0]) >= 0 {
				t.Fatalf("chunk %d does not start after chunk %d", chunks, chunks-1)
			}
			last = append(last[:0], keys[len(keys)-1]...)
			pairs += len(keys)
			chunks++
			return true
		})
		if !ok || pairs != want {
			t.Fatalf("snapChunks shipped %d of %d pairs in %d chunks (ok %v)", pairs, want, chunks, ok)
		}
		t.Logf("%d pairs in %d chunks", pairs, chunks)
	}
	check(func(fn func(k, v []byte) bool) { sharedKeys(n, fn) }, n)
	huge := bytes.Repeat([]byte{'h'}, maxChunkKeyBytes+1)
	check(func(fn func(k, v []byte) bool) {
		_ = fn([]byte("a"), nil) && fn(huge, []byte("v")) && fn([]byte("i"), nil)
	}, 3)
}

// TestFreshFollowerCatchUpLongSharedKeys catches a fresh follower up, by
// snapshot, on a shard of 1 KiB keys that share 1,023 bytes with their
// neighbour: 5 MiB of keys whose chunk images weigh under 50 KB. The
// leader must cut the chunks within the follower's key budget, or the
// follower refuses them and never converges.
func TestFreshFollowerCatchUpLongSharedKeys(t *testing.T) {
	// Sample short keys so every 'z…' key lands in the last shard.
	ld := newLeader(t, t.TempDir(), testKeys(300))
	const n = 5000
	sharedKeys(n, func(k, v []byte) bool { ld.st.Set(k, v); return true })
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	last := ld.st.NumShards() - 1
	var chunks atomic.Int64
	ld.src.SetStreamFault(func(typ byte, body []byte) (FaultAction, time.Duration) {
		if typ == msgSnapChunk && int(binary.LittleEndian.Uint16(body)) == last {
			chunks.Add(1)
		}
		return FaultPass, 0
	})
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	waitConverged(t, ld, f)
	waitSnapshots(t, f, int64(ld.st.NumShards()))
	ld.src.SetStreamFault(nil)
	if got := f.Store().Count(); got != n {
		t.Fatalf("follower holds %d keys, want %d", got, n)
	}
	if c := chunks.Load(); c < 2 {
		t.Fatalf("the long-key shard shipped in %d chunk(s); its keys need at least 2 under the budget", c)
	}
}

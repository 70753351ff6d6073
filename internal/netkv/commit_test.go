package netkv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// Tests of the batch commit on the sharded write path: a batch's writes
// skip their per-write durability wait and the connection commits once
// per touched shard before replying, whatever else the batch holds.

// openAlways opens (or recovers) a 2-shard SyncAlways store on fsys.
// Keys below "m" live on shard 0, the rest on shard 1.
func openAlways(t *testing.T, fsys vfs.FS, mx *wal.Metrics) *shard.Store {
	t.Helper()
	st, err := shard.Open(shard.Options{
		Dir:         "/db",
		Partitioner: shard.NewExplicit([][]byte{[]byte("m")}),
		Durability:  wal.Options{Sync: wal.SyncAlways, FS: fsys, Metrics: mx, NoSelfHeal: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func flushOK(c *Client) ([]Response, error) {
	rs, err := c.Flush()
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		if r.Status != StatusOK {
			return nil, fmt.Errorf("op %d: status %d", i, r.Status)
		}
	}
	return rs, nil
}

// TestCommitFsyncsPerShard counts fsyncs exactly: a batch of 64 Sets over
// both shards costs at most one fsync per shard, one more operation after
// the Sets costs only what that operation itself syncs (a Flush syncs
// each shard once more; a Stat or a Scan nothing), and concurrent
// connections never cost more than batches × touched shards.
func TestCommitFsyncsPerShard(t *testing.T) {
	mx := wal.NewMetrics(metrics.NewRegistry())
	st := openAlways(t, vfs.NewMemFS(), mx)
	defer st.Close()
	s := serveShard(t, st)

	noTail := func(*Client) {}
	setBatch := func(c *Client, tag string, tail func(*Client)) error {
		for i := 0; i < 64; i++ {
			prefix := "a"
			if i%2 == 1 {
				prefix = "z"
			}
			k := []byte(fmt.Sprintf("%s-%s-%02d", prefix, tag, i))
			c.QueueSet(k, k)
		}
		tail(c)
		_, err := flushOK(c)
		return err
	}

	c := dial(t, s)
	for _, tc := range []struct {
		tail  string
		queue func(*Client)
		limit uint64
	}{
		{"", noTail, 2},
		{"+flush", (*Client).QueueFlush, 4},
		{"+stat", (*Client).QueueStat, 2},
		{"+scan", func(c *Client) { c.QueueScan(nil, 10) }, 2},
	} {
		before := mx.Fsyncs.Value()
		if err := setBatch(c, "one"+tc.tail, tc.queue); err != nil {
			t.Fatalf("64 Sets%s: %v", tc.tail, err)
		}
		if d := mx.Fsyncs.Value() - before; d == 0 || d > tc.limit {
			t.Fatalf("one 64-Set%s batch over 2 shards took %d fsyncs, want 1 to %d", tc.tail, d, tc.limit)
		}
	}

	const conns, rounds = 2, 20
	before := mx.Fsyncs.Value()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		c := dial(t, s)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := setBatch(c, fmt.Sprintf("c%d-r%d", g, r), noTail); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d, limit := mx.Fsyncs.Value()-before, uint64(conns*rounds*2); d > limit {
		t.Fatalf("%d batches over 2 shards took %d fsyncs, want <= %d", conns*rounds, d, limit)
	}
}

// slowSyncFS delays every WAL fsync. A reply sent before its batch's
// commit would reach the client while the fsync still sleeps, so the
// crash that follows would lose an acknowledged write.
type slowSyncFS struct{ *vfs.MemFS }

func (f slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	h, err := f.MemFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return h, err
	}
	return slowSyncFile{h}, nil
}

type slowSyncFile struct{ vfs.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(2 * time.Millisecond)
	return f.File.Sync()
}

// TestCommitAckImpliesDurable crashes the filesystem right after every
// acknowledged batch, recovers, and reads back every acknowledged write.
func TestCommitAckImpliesDurable(t *testing.T) {
	mem := vfs.NewMemFS()
	fsys := slowSyncFS{mem}
	acked := map[string]string{} // key -> value; "" means deleted
	key := func(round, i int) string {
		if i%2 == 0 {
			return fmt.Sprintf("a-%02d-%02d", round, i)
		}
		return fmt.Sprintf("z-%02d-%02d", round, i)
	}
	const rounds, sets = 12, 32
	for round := 0; ; round++ {
		st := openAlways(t, fsys, nil)
		for k, v := range acked {
			got, ok := st.Get([]byte(k))
			if v == "" && ok {
				t.Fatalf("round %d: acked delete of %s lost: found %q", round, k, got)
			}
			if v != "" && (!ok || string(got) != v) {
				t.Fatalf("round %d: acked write %s=%s lost: got %q, %v", round, k, v, got, ok)
			}
		}
		if round == rounds {
			st.Close()
			return
		}
		s, err := Serve("127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// One batch over both shards: new keys, plus deletes of a quarter
		// of the previous round's keys. Odd rounds end the batch with a
		// Flush and one more Set per shard: the Flush covers the writes
		// before it, the batch commit the Sets after it.
		n := sets
		for i := 0; i < sets; i++ {
			c.QueueSet([]byte(key(round, i)), []byte(fmt.Sprintf("v%d", round)))
			if round > 0 && i%4 == 0 {
				c.QueueDel([]byte(key(round-1, i)))
			}
		}
		if round%2 == 1 {
			c.QueueFlush()
			for ; n < sets+2; n++ {
				c.QueueSet([]byte(key(round, n)), []byte(fmt.Sprintf("v%d", round)))
			}
		}
		if _, err := flushOK(c); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mem.Crash()
		for i := 0; i < n; i++ {
			acked[key(round, i)] = fmt.Sprintf("v%d", round)
			if round > 0 && i%4 == 0 && i < sets {
				acked[key(round-1, i)] = ""
			}
		}
		c.Close()
		s.Close()
		st.Close() // fails on the crashed filesystem; the crash image is what counts
		mem.Restart()
	}
}

// TestCommitProgramOrder runs Set k, Get k, Del k, Get k, Set k in one
// batch while a second connection overwrites the same keys: deferring
// the durability wait must not reorder a key's operations. "workers"
// spans both shards (the per-shard worker pool); "inline" stays on one
// shard (the batch runs on the connection goroutine).
func TestCommitProgramOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prefixes []string
	}{
		{"workers", []string{"a", "z"}},
		{"inline", []string{"a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openAlways(t, vfs.NewMemFS(), nil)
			defer st.Close()
			s := serveShard(t, st)
			var keys [][]byte
			for _, p := range tc.prefixes {
				for i := 0; i < 8; i++ {
					keys = append(keys, []byte(fmt.Sprintf("%s-order-%d", p, i)))
				}
			}

			done := make(chan struct{})
			var wg sync.WaitGroup
			other := dial(t, s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-done:
						return
					default:
					}
					for _, k := range keys {
						other.QueueSet(k, []byte(fmt.Sprintf("other-%d", n)))
					}
					if _, err := flushOK(other); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			defer func() {
				close(done)
				wg.Wait()
			}()

			c := dial(t, s)
			fromOther := func(v []byte) bool { return strings.HasPrefix(string(v), "other-") }
			for round := 0; round < 50; round++ {
				first := fmt.Sprintf("first-%d", round)
				for _, k := range keys {
					c.QueueSet(k, []byte(first))
					c.QueueGet(k)
					c.QueueDel(k)
					c.QueueGet(k)
					c.QueueSet(k, []byte(fmt.Sprintf("last-%d", round)))
				}
				rs, err := c.Flush()
				if err != nil {
					t.Fatal(err)
				}
				for j, k := range keys {
					set1, get1, del, get2, set2 := rs[5*j], rs[5*j+1], rs[5*j+2], rs[5*j+3], rs[5*j+4]
					if set1.Status != StatusOK || del.Status != StatusOK || set2.Status != StatusOK {
						t.Fatalf("round %d %s: set/del/set = %d/%d/%d", round, k, set1.Status, del.Status, set2.Status)
					}
					// The only other writer sets "other-*": a Get after this
					// batch's Set sees that Set or a later foreign one, and a
					// Get after the Del sees nothing or a foreign Set.
					if get1.Status != StatusOK || (string(get1.Val) != first && !fromOther(get1.Val)) {
						t.Fatalf("round %d %s: get after set = %d %q, want %q", round, k, get1.Status, get1.Val, first)
					}
					if get2.Status == StatusOK && !fromOther(get2.Val) {
						t.Fatalf("round %d %s: get after del = %q, want not found", round, k, get2.Val)
					}
				}
			}
		})
	}
}

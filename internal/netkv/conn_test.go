package netkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/testsupport"
)

// TestPointBatchZeroAllocs pins a warm point batch at zero allocations on
// both ends of a connection: request and response frames decoded in
// place, replies built in the connection's kept frame, and the batch's
// grouping scratch reused. The 2-shard store's batches split into two
// groups, so they run on the shard workers through the per-connection
// jobs; each group's GetBatch takes one pooled pipeline scratch.
func TestPointBatchZeroAllocs(t *testing.T) {
	info, ok := index.Lookup("wormhole")
	if !ok {
		t.Fatal(`index "wormhole" not registered`)
	}
	const (
		nkeys   = 1000
		perB    = 64
		batches = 1000
	)
	for _, tc := range []struct {
		name     string
		ix       index.Index
		poolGets int // pooled scratch Gets per batch
	}{
		{"unsharded", info.New(), 0},
		{"2-shard", shard.New(shard.Options{Partitioner: shard.NewExplicit([][]byte{[]byte("k-0500")})}), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Serve("127.0.0.1:0", tc.ix)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("k-%04d", i))
				c.QueueSet(keys[i], keys[i])
			}
			if _, err := flushOK(c); err != nil {
				t.Fatal(err)
			}
			i, bad := 0, 0
			batch := func() {
				for j := 0; j < perB; j++ {
					c.QueueGet(keys[(i*perB+j*7)%nkeys])
				}
				rs, err := c.Flush()
				if err != nil || len(rs) != perB {
					bad++
					return
				}
				for j, r := range rs {
					if r.Status != StatusOK || !bytes.Equal(r.Val, keys[(i*perB+j*7)%nkeys]) {
						bad++
					}
				}
				i++
			}
			budget := testsupport.PoolAllocs(batches * tc.poolGets)
			n, win := testsupport.Mallocs(batches, budget, batch)
			if bad != 0 {
				t.Fatalf("%d wrong responses", bad)
			}
			if n > budget {
				t.Fatalf("%d allocations over %d batches of %d Gets, want <= %d (%s)", n, batches, perB, budget, win)
			}
			t.Logf("%d allocations over %d batches of %d Gets (%s)", n, batches, perB, win)
		})
	}
}

// TestPointSetBatchAllocs pins the write side of a warm point batch:
// each Set's key and value, views into the connection's read buffer, go to
// the index as they are, and the index copies them into its own storage.
// 1,000 batches of 64 Sets overwrite 1,000 keys; what may allocate is a
// leaf's arena growing or compacting now and then, far below one
// allocation per four Sets (a copy of each Set's buffers costs two per Set).
func TestPointSetBatchAllocs(t *testing.T) {
	info, ok := index.Lookup("wormhole")
	if !ok {
		t.Fatal(`index "wormhole" not registered`)
	}
	const (
		nkeys   = 1000
		perB    = 64
		batches = 1000
	)
	for _, tc := range []struct {
		name     string
		ix       index.Index
		poolGets int // pooled scratch Gets per batch, as in TestPointBatchZeroAllocs
	}{
		{"unsharded", info.New(), 0},
		{"2-shard", shard.New(shard.Options{Partitioner: shard.NewExplicit([][]byte{[]byte("k-0500")})}), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Serve("127.0.0.1:0", tc.ix)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("k-%04d", i))
			}
			last := make([]uint64, nkeys) // the last value Set under each key
			val := make([]byte, 8)
			i, bad := 0, 0
			batch := func() {
				for j := 0; j < perB; j++ {
					k := (i*perB + j*7) % nkeys
					last[k] = uint64(i*perB + j)
					binary.LittleEndian.PutUint64(val, last[k])
					c.QueueSet(keys[k], val)
				}
				rs, err := c.Flush()
				if err != nil || len(rs) != perB {
					bad++
					return
				}
				for _, r := range rs {
					if r.Status != StatusOK {
						bad++
					}
				}
				i++
			}
			budget := uint64(batches*perB/4) + testsupport.PoolAllocs(batches*tc.poolGets)
			n, win := testsupport.Mallocs(batches, budget-1, batch)
			if bad != 0 {
				t.Fatalf("%d wrong responses", bad)
			}
			for k, key := range keys {
				v, ok := tc.ix.Get(key)
				if !ok || len(v) != 8 || binary.LittleEndian.Uint64(v) != last[k] {
					t.Fatalf("Get(%s) = %x, %v; want the last value Set, %d", key, v, ok, last[k])
				}
			}
			if n >= budget {
				t.Fatalf("%d allocations over %d batches of %d Sets, want < %d (%s)", n, batches, perB, budget, win)
			}
			t.Logf("%d allocations over %d batches of %d Sets (%s)", n, batches, perB, win)
		})
	}
}

// TestFrameOverBuffer sends request and reply frames larger than a
// connection's buffers, which bypass the in-place decode, and checks every
// byte end to end; a small batch on the same connection afterwards must
// still work, with the big batch's scratch dropped.
func TestFrameOverBuffer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(*testing.T) (*Server, *Client)
	}{
		{"unsharded", func(t *testing.T) (*Server, *Client) { return startServer(t, "wormhole") }},
		{"sharded", startShardedServer},
	} {
		t.Run(tc.name+"/request", func(t *testing.T) {
			_, c := tc.start(t)
			key := func(i int) []byte { return []byte(fmt.Sprintf("dispatch-%05d", i*3)) }
			val := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 512) }
			for i := 0; i < DefaultBatch; i++ {
				c.QueueSet(key(i), val(i))
			}
			if len(c.out) <= bufSize {
				t.Fatalf("request frame is %d bytes, want more than %d", len(c.out), bufSize)
			}
			if _, err := flushOK(c); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < DefaultBatch; i++ {
				c.QueueGet(key(i))
			}
			rs, err := c.Flush()
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if r.Status != StatusOK || !bytes.Equal(r.Val, val(i)) {
					t.Fatalf("Get %d: status %d, %d-byte value", i, r.Status, len(r.Val))
				}
			}
			checkSmallBatch(t, c, key(7), val(7))
		})
		t.Run(tc.name+"/scan", func(t *testing.T) {
			_, c := tc.start(t)
			const n = maxScanPairs + 10
			key := func(i int) []byte { return []byte(fmt.Sprintf("scan-%06d", i)) }
			for i := 0; i < n; i++ {
				c.QueueSet(key(i), key(i+1))
				if c.Pending() == DefaultBatch || i == n-1 {
					if _, err := flushOK(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.QueueScan(key(0), n)
			rs, err := c.Flush()
			if err != nil {
				t.Fatal(err)
			}
			r := rs[0]
			if r.Status != StatusOK || len(r.Keys) != maxScanPairs || len(r.Vals) != maxScanPairs {
				t.Fatalf("scan: status %d, %d keys, %d values", r.Status, len(r.Keys), len(r.Vals))
			}
			for i := range r.Keys {
				if !bytes.Equal(r.Keys[i], key(i)) || !bytes.Equal(r.Vals[i], key(i+1)) {
					t.Fatalf("pair %d: %q = %q", i, r.Keys[i], r.Vals[i])
				}
			}
			checkSmallBatch(t, c, key(5), key(6))
		})
	}
}

// checkSmallBatch reads key back in a one-Get batch.
func checkSmallBatch(t *testing.T, c *Client, key, want []byte) {
	t.Helper()
	c.QueueGet(key)
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusOK || !bytes.Equal(rs[0].Val, want) {
		t.Fatalf("small batch after a large one: status %d, value %q", rs[0].Status, rs[0].Val)
	}
}

// TestLifetimeSubscribePayload checks that the Subscribe hook owns its
// payload: the request was decoded in the reader's buffer, and the
// stream's first read refills that buffer from its start.
func TestLifetimeSubscribePayload(t *testing.T) {
	info, _ := index.Lookup("wormhole")
	payload := bytes.Repeat([]byte("subscribe-payload-"), 64)
	got := make(chan []byte, 1)
	s, err := ServeOpts("127.0.0.1:0", info.New(), ServerOptions{
		Subscribe: func(conn net.Conn, r *bufio.Reader, w *bufio.Writer, p []byte) {
			w.WriteString("go")
			w.Flush()
			var stream [4096]byte
			if _, err := io.ReadFull(r, stream[:]); err != nil {
				got <- nil
				return
			}
			got <- bytes.Clone(p)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &Client{}
	c.queue(OpSubscribe, payload, nil, 0)
	if err := writeFrame(bufio.NewWriter(conn), 1, c.out); err != nil {
		t.Fatal(err)
	}
	var ready [2]byte
	if _, err := io.ReadFull(conn, ready[:]); err != nil {
		t.Fatal(err)
	}
	// Only now, with the request consumed, does the stream's data arrive.
	if _, err := conn.Write(bytes.Repeat([]byte{0xee}, 4096)); err != nil {
		t.Fatal(err)
	}
	if p := <-got; !bytes.Equal(p, payload) {
		t.Fatalf("the hook's payload changed under the stream: %q", p)
	}
}

// TestLifetimeClientResponse checks Flush's contract: responses alias the
// client's buffers and stay intact until the next Flush, whatever is
// queued in between.
func TestLifetimeClientResponse(t *testing.T) {
	_, c := startServer(t, "wormhole")
	v1, v2 := bytes.Repeat([]byte("one-"), 100), bytes.Repeat([]byte("two-"), 100)
	c.QueueSet([]byte("k1"), v1)
	c.QueueSet([]byte("k2"), v2)
	if _, err := flushOK(c); err != nil {
		t.Fatal(err)
	}
	c.QueueGet([]byte("k1"))
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	c.QueueGet([]byte("k2"))
	c.QueueSet([]byte("k3"), bytes.Repeat([]byte{0xee}, 4096))
	if !bytes.Equal(rs[0].Val, v1) {
		t.Fatalf("response changed before the next Flush: %q", rs[0].Val)
	}
	rs, err = c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusOK || !bytes.Equal(rs[0].Val, v2) || rs[1].Status != StatusOK {
		t.Fatalf("second batch: %+v", rs)
	}
}

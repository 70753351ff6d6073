package netkv

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"github.com/repro/wormhole/internal/adapters"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/shard"
)

func startServer(t *testing.T, name string) (*Server, *Client) {
	t.Helper()
	info, ok := index.Lookup(name)
	if !ok {
		t.Fatalf("index %q not registered", name)
	}
	_ = adapters.Baselines() // ensure the adapters package is linked
	s, err := Serve("127.0.0.1:0", info.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestRoundTrip(t *testing.T) {
	_, c := startServer(t, "wormhole")
	c.QueueSet([]byte("alpha"), []byte("1"))
	c.QueueSet([]byte("beta"), []byte("2"))
	c.QueueGet([]byte("alpha"))
	c.QueueGet([]byte("missing"))
	c.QueueDel([]byte("beta"))
	c.QueueGet([]byte("beta"))
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("got %d responses", len(rs))
	}
	if rs[2].Status != StatusOK || string(rs[2].Val) != "1" {
		t.Fatalf("get alpha = %+v", rs[2])
	}
	if rs[3].Status != StatusNotFound {
		t.Fatalf("get missing = %+v", rs[3])
	}
	if rs[4].Status != StatusOK {
		t.Fatalf("del beta = %+v", rs[4])
	}
	if rs[5].Status != StatusNotFound {
		t.Fatalf("get beta after del = %+v", rs[5])
	}
}

func TestScanOverWire(t *testing.T) {
	_, c := startServer(t, "wormhole")
	for i := 0; i < 200; i++ {
		c.QueueSet([]byte(fmt.Sprintf("s%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		if c.Pending() >= 64 {
			if _, err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.QueueScan([]byte("s0100"), 5)
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Keys) != 5 {
		t.Fatalf("scan returned %+v", rs)
	}
	if string(rs[0].Keys[0]) != "s0100" || string(rs[0].Vals[0]) != "v100" {
		t.Fatalf("scan[0] = %s=%s", rs[0].Keys[0], rs[0].Vals[0])
	}
	if string(rs[0].Keys[4]) != "s0104" {
		t.Fatalf("scan[4] = %s", rs[0].Keys[4])
	}
}

func TestLargeBatch(t *testing.T) {
	_, c := startServer(t, "btree")
	for i := 0; i < DefaultBatch; i++ {
		c.QueueSet([]byte(fmt.Sprintf("b%06d", i)), []byte("x"))
	}
	rs, err := c.Flush()
	if err != nil || len(rs) != DefaultBatch {
		t.Fatalf("set batch: %v, %d", err, len(rs))
	}
	for i := 0; i < DefaultBatch; i++ {
		c.QueueGet([]byte(fmt.Sprintf("b%06d", i)))
	}
	rs, err = c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Status != StatusOK {
			t.Fatalf("get %d missed", i)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s, seed := startServer(t, "wormhole")
	seed.QueueSet([]byte("shared"), []byte("yes"))
	if _, err := seed.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				c.QueueSet([]byte(fmt.Sprintf("c%d-%04d", g, i)), []byte("v"))
				c.QueueGet([]byte("shared"))
				rs, err := c.Flush()
				if err != nil {
					t.Error(err)
					return
				}
				if rs[1].Status != StatusOK || string(rs[1].Val) != "yes" {
					t.Errorf("shared key lost: %+v", rs[1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLargeValues(t *testing.T) {
	_, c := startServer(t, "wormhole")
	big := make([]byte, 1024) // K10-sized keys/values cross the wire intact
	for i := range big {
		big[i] = byte(i)
	}
	c.QueueSet(big, big)
	c.QueueGet(big)
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Status != StatusOK || len(rs[1].Val) != 1024 || rs[1].Val[777] != byte(777%256) {
		t.Fatalf("big value corrupted")
	}
}

// startShardedServer serves a 4-shard store directly (not via the
// registry) so the per-shard worker-pool dispatch path runs regardless of
// the host's CPU count. Boundaries are placed inside the key ranges the
// tests use, so their batches produce multiple shard groups and exercise
// the concurrent grouping/reassembly path, not the one-group fast path.
func startShardedServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	part := shard.NewExplicit([][]byte{
		[]byte("dispatch-01000"), []byte("scan-0250"), []byte("t"),
	})
	s, err := Serve("127.0.0.1:0", shard.New(shard.Options{Partitioner: part}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.bx == nil || len(s.workers) != 4 {
		t.Fatalf("sharded server has no worker pool (bx=%v, workers=%d)", s.bx, len(s.workers))
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestShardedBatchDispatch(t *testing.T) {
	_, c := startShardedServer(t)
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("dispatch-%05d", i)) }
	for i := 0; i < n; i++ {
		c.QueueSet(key(i), key(i))
	}
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Status != StatusOK {
			t.Fatalf("set %d: %+v", i, r)
		}
	}
	for i := 0; i < n; i++ {
		c.QueueGet(key(i))
	}
	if rs, err = c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Status != StatusOK || string(r.Val) != string(key(i)) {
			t.Fatalf("get %d = %+v", i, r)
		}
	}
	for i := 0; i < n; i += 2 {
		c.QueueDel(key(i))
	}
	if rs, err = c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Status != StatusOK {
			t.Fatalf("del %d: %+v", i, r)
		}
	}
	for i := 0; i < n; i++ {
		c.QueueGet(key(i))
	}
	if rs, err = c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		want := StatusNotFound
		if i%2 == 1 {
			want = StatusOK
		}
		if r.Status != want {
			t.Fatalf("get-after-del %d: status %d want %d", i, r.Status, want)
		}
	}
}

// TestShardedBatchSameKeyOrder checks that operations on one key inside a
// single dispatched batch keep their request order: they all land on the
// same shard, whose worker executes them sequentially.
func TestShardedBatchSameKeyOrder(t *testing.T) {
	_, c := startShardedServer(t)
	k := []byte("ordered-key")
	c.QueueSet(k, []byte("v1"))
	c.QueueGet(k)
	c.QueueSet(k, []byte("v2"))
	c.QueueGet(k)
	c.QueueDel(k)
	c.QueueGet(k)
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if string(rs[1].Val) != "v1" {
		t.Fatalf("first get = %q, want v1", rs[1].Val)
	}
	if string(rs[3].Val) != "v2" {
		t.Fatalf("second get = %q, want v2", rs[3].Val)
	}
	if rs[4].Status != StatusOK || rs[5].Status != StatusNotFound {
		t.Fatalf("del/get tail = %d/%d", rs[4].Status, rs[5].Status)
	}
}

// TestShardedBatchedGetRuns drives batches whose shard groups contain
// long runs of consecutive Gets — the shape the server now routes
// through the read handle's batched lookup — interleaved with writes
// that split the runs. Results must stay positional (hits, misses, and
// duplicate keys in one run) and same-key operations must keep program
// order across the run boundaries.
func TestShardedBatchedGetRuns(t *testing.T) {
	_, c := startShardedServer(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("runs-%05d", i)) }
	const n = 300
	for i := 0; i < n; i++ {
		c.QueueSet(key(i), []byte(fmt.Sprintf("val-%05d", i)))
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// One batch: a long Get run with misses and duplicates, a Set that
	// cuts the run, then Gets of the overwritten key.
	for i := 0; i < n; i++ {
		c.QueueGet(key(i))
		if i%7 == 0 {
			c.QueueGet([]byte(fmt.Sprintf("runs-miss-%05d", i)))
			c.QueueGet(key(i)) // duplicate inside the run
		}
	}
	c.QueueSet(key(42), []byte("rewritten"))
	c.QueueGet(key(42))
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	p := 0
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("val-%05d", i)
		if i == 42 {
			// The Set of key 42 comes later in the batch, but a batch
			// executes grouped by shard, not globally in order; for the
			// same key, though, program order holds: this Get precedes
			// the Set, so it must still see the original value.
			want = "val-00042"
		}
		if rs[p].Status != StatusOK || string(rs[p].Val) != want {
			t.Fatalf("get %d (result %d) = %d %q, want %q", i, p, rs[p].Status, rs[p].Val, want)
		}
		p++
		if i%7 == 0 {
			if rs[p].Status != StatusNotFound {
				t.Fatalf("miss probe %d: status %d", i, rs[p].Status)
			}
			p++
			if rs[p].Status != StatusOK || string(rs[p].Val) != want {
				t.Fatalf("dup get %d = %d %q, want %q", i, rs[p].Status, rs[p].Val, want)
			}
			p++
		}
	}
	if rs[p].Status != StatusOK {
		t.Fatalf("rewrite set: %d", rs[p].Status)
	}
	if string(rs[p+1].Val) != "rewritten" {
		t.Fatalf("get after rewrite = %q, want %q", rs[p+1].Val, "rewritten")
	}
}

// TestShardedScanFallback sends a scan between point operations on a
// sharded store: the stitched cross-shard scan must come back in global
// key order, see a Set made earlier in the same batch, and a Del after it
// must be seen by a trailing Get.
func TestShardedScanFallback(t *testing.T) {
	_, c := startShardedServer(t)
	const n = 500
	for i := 0; i < n; i++ {
		c.QueueSet([]byte(fmt.Sprintf("scan-%04d", i)), []byte("v"))
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.QueueGet([]byte("scan-0000"))
	c.QueueSet([]byte(fmt.Sprintf("scan-%04d", n)), []byte("v"))
	c.QueueScan([]byte("scan-"), n+1)
	c.QueueGet([]byte("scan-0499"))
	c.QueueDel([]byte("scan-0499"))
	c.QueueGet([]byte("scan-0499"))
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusOK || rs[1].Status != StatusOK || rs[3].Status != StatusOK {
		t.Fatalf("point ops around scan failed: %+v %+v %+v", rs[0], rs[1], rs[3])
	}
	if len(rs[2].Keys) != n+1 {
		t.Fatalf("scan returned %d keys, want %d", len(rs[2].Keys), n+1)
	}
	for i, k := range rs[2].Keys {
		if want := fmt.Sprintf("scan-%04d", i); string(k) != want {
			t.Fatalf("scan key %d = %q, want %q", i, k, want)
		}
	}
	if rs[4].Status != StatusOK || rs[5].Status != StatusNotFound {
		t.Fatalf("del after scan / get after del = %d / %d", rs[4].Status, rs[5].Status)
	}
}

// TestScanResponseCap scans more pairs than one response can count: the
// reply stops at 65,535 pairs and the frame stays decodable for the
// operation after it, and a limit of 0 returns no pairs.
func TestScanResponseCap(t *testing.T) {
	_, c := startServer(t, "wormhole")
	const n = 70000
	key := func(i int) []byte { return []byte(fmt.Sprintf("cap-%06d", i)) }
	for i := 0; i < n; i++ {
		c.QueueSet(key(i), key(i))
		if c.Pending() == DefaultBatch || i == n-1 {
			if _, err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.QueueScan(nil, n)
	c.QueueScanDesc(nil, n+1000)
	c.QueueScan(key(10), 0)
	c.QueueGet(key(n - 1))
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	const most = 1<<16 - 1
	if len(rs[0].Keys) != most || string(rs[0].Keys[most-1]) != string(key(most-1)) {
		t.Fatalf("capped scan: %d pairs", len(rs[0].Keys))
	}
	if len(rs[1].Keys) != most || string(rs[1].Keys[0]) != string(key(n-1)) {
		t.Fatalf("capped desc scan: %d pairs", len(rs[1].Keys))
	}
	if rs[2].Status != StatusOK || len(rs[2].Keys) != 0 {
		t.Fatalf("limit-0 scan: status %d, %d pairs", rs[2].Status, len(rs[2].Keys))
	}
	if rs[3].Status != StatusOK || string(rs[3].Val) != string(key(n-1)) {
		t.Fatalf("get after capped scans = %d %q", rs[3].Status, rs[3].Val)
	}
}

func TestShardedConcurrentClients(t *testing.T) {
	s, _ := startShardedServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for round := 0; round < 20; round++ {
				for i := 0; i < 100; i++ {
					// Alternating prefixes straddle the "t" boundary, so
					// every batch fans out across two shard workers.
					prefix := "cc"
					if i%2 == 1 {
						prefix = "zz"
					}
					k := []byte(fmt.Sprintf("%s%d-%03d", prefix, g, i))
					c.QueueSet(k, k)
					c.QueueGet(k)
				}
				rs, err := c.Flush()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 1; i < len(rs); i += 2 {
					if rs[i].Status != StatusOK {
						t.Errorf("client %d: get %d missed", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScanDescOverWire exercises the OpScanDesc opcode end to end on both
// a single Wormhole (served through the connection's pinned scan handle)
// and the sharded store (stitched across shards), including the
// empty-key-means-largest convention.
func TestScanDescOverWire(t *testing.T) {
	for _, name := range []string{"wormhole", "wormhole-sharded"} {
		t.Run(name, func(t *testing.T) {
			_, c := startServer(t, name)
			for i := 0; i < 300; i++ {
				c.QueueSet([]byte(fmt.Sprintf("d%04d", i)), []byte(fmt.Sprintf("v%d", i)))
				if c.Pending() >= 64 {
					if _, err := c.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			c.QueueScanDesc([]byte("d0100"), 5)
			c.QueueScanDesc(nil, 3) // empty key: from the largest
			c.QueueScan([]byte("d0100"), 2)
			rs, err := c.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 3 {
				t.Fatalf("got %d responses", len(rs))
			}
			if len(rs[0].Keys) != 5 || string(rs[0].Keys[0]) != "d0100" ||
				string(rs[0].Keys[4]) != "d0096" || string(rs[0].Vals[4]) != "v96" {
				t.Fatalf("desc scan = %+v", rs[0].Keys)
			}
			if len(rs[1].Keys) != 3 || string(rs[1].Keys[0]) != "d0299" ||
				string(rs[1].Keys[2]) != "d0297" {
				t.Fatalf("unbounded desc scan = %+v", rs[1].Keys)
			}
			if len(rs[2].Keys) != 2 || string(rs[2].Keys[0]) != "d0100" {
				t.Fatalf("asc scan after desc = %+v", rs[2].Keys)
			}
		})
	}
}

// TestScanDescUnsupported: an index with no descending scan answers
// StatusNotFound instead of breaking the framing.
func TestScanDescUnsupported(t *testing.T) {
	_, c := startServer(t, "btree")
	c.QueueSet([]byte("k"), []byte("v"))
	c.QueueScanDesc([]byte("zzz"), 4)
	c.QueueGet([]byte("k"))
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[1].Status != StatusNotFound || len(rs[1].Keys) != 0 {
		t.Fatalf("unsupported desc scan = %+v", rs)
	}
	if rs[2].Status != StatusOK || string(rs[2].Val) != "v" {
		t.Fatalf("get after unsupported desc scan = %+v", rs[2])
	}
}

func TestFlushOverWireDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := shard.Open(shard.Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.QueueSet([]byte("durable-key"), []byte("durable-val"))
	c.QueueFlush()
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Status != StatusOK {
		t.Fatalf("flush on durable index = %+v, want StatusOK", rs[1])
	}
	c.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The flushed write must survive a restart.
	st2, err := shard.Open(shard.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, ok := st2.Get([]byte("durable-key")); !ok || string(v) != "durable-val" {
		t.Fatalf("recovered durable-key = %q,%v", v, ok)
	}
}

func TestFlushOverWireVolatile(t *testing.T) {
	_, c := startServer(t, "wormhole")
	c.QueueFlush()
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusNotFound {
		t.Fatalf("flush on volatile index = %+v, want StatusNotFound", rs[0])
	}
}

func TestServerDoubleClose(t *testing.T) {
	info, _ := index.Lookup("wormhole-sharded")
	s, err := Serve("127.0.0.1:0", info.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close must not re-close the drained worker channels.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFlushOverWireVolatileSharded(t *testing.T) {
	// The volatile sharded store implements the durable lifecycle as
	// no-ops; the server must still refuse the durability ack.
	st := shard.New(shard.Options{Shards: 2})
	s, err := Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.QueueFlush()
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusNotFound {
		t.Fatalf("flush on volatile sharded store = %+v, want StatusNotFound", rs[0])
	}
}

func TestMalformedFrameDoesNotKillServer(t *testing.T) {
	s, c := startServer(t, "wormhole")
	// Handshake a healthy op first so the connection is live.
	c.QueueSet([]byte("ok"), []byte("1"))
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a frame whose key length is near 2^32: the uint32
	// bounds check `klen+4` would wrap and the slice would panic the
	// handler. The server must just drop the connection.
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	body := []byte{OpGet}
	body = binary.LittleEndian.AppendUint32(body, 0xFFFFFFFF) // hostile klen
	body = append(body, 1, 2, 3, 4, 5, 6, 7, 8)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(body)+2))
	frame = binary.LittleEndian.AppendUint16(frame, 1)
	frame = append(frame, body...)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a hostile frame instead of dropping it")
	}
	raw.Close()
	// The server survives and keeps serving other connections.
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.QueueGet([]byte("ok"))
	rs, err := c2.Flush()
	if err != nil || rs[0].Status != StatusOK {
		t.Fatalf("server unhealthy after hostile frame: %v %+v", err, rs)
	}
}

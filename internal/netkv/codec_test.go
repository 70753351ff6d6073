package netkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// scriptOps reads data as a script of client operations, queues them on c
// and returns the requests the server should decode. Each step is an
// opcode selector byte, a length byte, and as many following bytes as the
// operation takes; a step cut short by the end of data takes what is
// left.
func scriptOps(c *Client, data []byte) []Request {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	var want []Request
	for len(data) >= 2 && c.Pending() < 1<<16-1 {
		sel, n := data[0], int(data[1])
		data = data[2:]
		switch sel % 8 {
		case 0:
			k := take(n)
			c.QueueGet(k)
			want = append(want, Request{Op: OpGet, Key: k})
		case 1:
			k, v := take(n%16), take(n)
			c.QueueSet(k, v)
			want = append(want, Request{Op: OpSet, Key: k, Val: v})
		case 2:
			k := take(n)
			c.QueueDel(k)
			want = append(want, Request{Op: OpDel, Key: k})
		case 3, 4:
			k, limit := take(n%16), n*n*n
			op := OpScan
			if sel%8 == 3 {
				c.QueueScan(k, limit)
			} else {
				op = OpScanDesc
				c.QueueScanDesc(k, limit)
			}
			want = append(want, Request{Op: op, Key: k, Limit: uint32(limit)})
		case 5:
			c.QueueFlush()
			want = append(want, Request{Op: OpFlush})
		case 6:
			c.QueueStat()
			want = append(want, Request{Op: OpStat})
		case 7:
			var k [8]byte
			copy(k[:], take(n%9))
			c.QueueFence(binary.LittleEndian.Uint64(k[:]))
			want = append(want, Request{Op: OpFence, Key: k[:]})
		}
	}
	return want
}

// FuzzReadRequests checks the frame decoder three ways. Arbitrary bytes
// must never panic it. Every frame must decode the same through a reader
// that holds it whole (decoded in place) and through a 16-byte reader
// (read into a one-off slice). And the same bytes, read as a script of
// client operations, must survive a round trip: the frame the Client
// encoder builds decodes to the same ops, keys, values and limits.
func FuzzReadRequests(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 'k', 'e', 'y', 1, 2, 'k', 'v', 3, 4, 5, 0, 6, 0, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{9, 0, 0, 0, 1, 0, OpGet, 0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // hostile key length
	f.Add([]byte{7, 0, 0, 0, 2, 0, OpScan, 0, 0, 0, 0, 0xff, 0xff})         // count past the body
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBoth(t, data)

		c := &Client{}
		want := scriptOps(c, data)
		if len(want) == 0 {
			return
		}
		var frame bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&frame), c.Pending(), c.out); err != nil {
			t.Fatal(err)
		}
		got, err := decodeBoth(t, frame.Bytes())
		if err != nil {
			t.Fatalf("client frame of %d ops does not decode: %v", len(want), err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d ops, encoded %d", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Op != w.Op || !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Val, w.Val) || g.Limit != w.Limit {
				t.Fatalf("op %d: decoded %+v, encoded %+v", i, g, w)
			}
		}
	})
}

// decodeBoth decodes one frame from data through a bufSize reader and
// through a 16-byte one, fails t unless both give the same requests or
// both fail, and returns the first decode.
func decodeBoth(t *testing.T, data []byte) ([]Request, error) {
	t.Helper()
	got, err := readRequests(bufio.NewReaderSize(bytes.NewReader(data), bufSize), nil)
	small, serr := readRequests(bufio.NewReaderSize(bytes.NewReader(data), 16), nil)
	if (err == nil) != (serr == nil) {
		t.Fatalf("in-place decode error %v, one-off decode error %v", err, serr)
	}
	if len(got) != len(small) {
		t.Fatalf("in-place decode gave %d requests, one-off %d", len(got), len(small))
	}
	for i := range got {
		g, s := got[i], small[i]
		if g.Op != s.Op || !bytes.Equal(g.Key, s.Key) || !bytes.Equal(g.Val, s.Val) || g.Limit != s.Limit {
			t.Fatalf("request %d: in place %+v, one-off %+v", i, g, s)
		}
	}
	return got, err
}

package netkv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"
)

// Client is a single-connection batched client. It is not safe for
// concurrent use; benchmark workers each own one client, as HERD clients
// each own a queue pair.
//
// Transport errors are sticky: once a Flush fails, the connection's
// protocol state is unknown (a response may be half-read), so every later
// Flush reports the original failure — wrapped with the server address —
// instead of a confusing short-read on reused state. Redial makes the
// client usable again.
type Client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	out  []byte // the batch's frame, built on newFrame
	ops  []byte // op kind per queued request, needed to decode responses
	n    int
	err  error // sticky transport error; cleared by Redial
	// resps is Flush's result, reused across batches.
	resps []Response

	// Timeout, when non-zero, bounds each Flush's network phases: the
	// batch write and the response read each get a deadline this far
	// out. An expired deadline surfaces as a sticky transport error;
	// Redial (or FlushRetry, for read-only batches) recovers.
	Timeout time.Duration
}

// Dial connects to a netkv server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		addr: addr,
		conn: conn,
		r:    bufio.NewReaderSize(conn, bufSize),
		w:    bufio.NewWriterSize(conn, bufSize),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Err returns the sticky transport error, if any: the underlying cause of
// the client's broken state (connection reset, server gone), not the
// secondary decode failure it would otherwise surface as.
func (c *Client) Err() error { return c.err }

// fail records the first transport error, wrapped with the address so the
// caller sees which server died, and returns the sticky condition.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("netkv: connection to %s broken: %w", c.addr, err)
	}
	return c.err
}

// Redial reconnects a broken client: it closes the old connection,
// retries the dial with exponential backoff until one succeeds or maxWait
// elapses, and clears the sticky error. Reconnecting is caller-driven —
// the client never redials behind the caller's back, because a batch may
// have been half-applied by the dead server and only the caller knows
// whether re-sending is safe. Queued-but-unsent operations are discarded;
// re-queue them after a successful Redial.
func (c *Client) Redial(maxWait time.Duration) error {
	c.conn.Close()
	backoff := 50 * time.Millisecond
	deadline := time.Now().Add(maxWait)
	for {
		conn, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.conn = conn
			c.r.Reset(conn)
			c.w.Reset(conn)
			c.out, c.ops, c.n = c.out[:0], c.ops[:0], 0
			c.err = nil
			return nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return fmt.Errorf("netkv: redial %s: %w", c.addr, err)
		}
		// Jitter the sleep (uniform in [backoff/2, backoff]): a restarted
		// leader must not take a synchronized reconnect stampede from
		// every client and follower that lost it at the same instant.
		time.Sleep(backoff/2 + rand.N(backoff/2+1))
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// QueueGet appends a GET to the current batch.
func (c *Client) QueueGet(key []byte) { c.queue(OpGet, key, nil, 0) }

// QueueSet appends a SET to the current batch.
func (c *Client) QueueSet(key, val []byte) { c.queue(OpSet, key, val, 0) }

// QueueDel appends a DEL to the current batch.
func (c *Client) QueueDel(key []byte) { c.queue(OpDel, key, nil, 0) }

// QueueFlush appends a FLUSH barrier to the current batch: the server
// forces every mutation logged so far (including this batch's earlier
// operations) to stable storage before answering. StatusNotFound means
// the server's index is volatile.
func (c *Client) QueueFlush() { c.queue(OpFlush, nil, nil, 0) }

// QueueStat appends a STAT request; the response value is a JSON Stat.
func (c *Client) QueueStat() { c.queue(OpStat, nil, nil, 0) }

// Stat issues a one-request batch asking for the server's Stat document.
// Any queued operations are sent (and answered) ahead of it.
func (c *Client) Stat() (*Stat, error) {
	c.QueueStat()
	rs, err := c.Flush()
	if err != nil {
		return nil, err
	}
	r := rs[len(rs)-1]
	if r.Status != StatusOK {
		return nil, fmt.Errorf("netkv: stat failed on %s (status %d)", c.addr, r.Status)
	}
	var st Stat
	if err := json.Unmarshal(r.Val, &st); err != nil {
		return nil, fmt.Errorf("netkv: stat from %s: %w", c.addr, err)
	}
	return &st, nil
}

// QueueFence appends a FENCE carrying epoch: the server, if its index has
// replication epochs, refuses all writes with StatusFenced from before
// this request is answered.
func (c *Client) QueueFence(epoch uint64) {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], epoch)
	c.queue(OpFence, k[:], nil, 0)
}

// Fence issues a one-request batch fencing the server at epoch. A nil
// return means the server accepted (and persisted) the fence; any write it
// answers afterwards reports StatusFenced. StatusNotFound (the server's
// index has no epochs) and persistence failures surface as errors.
func (c *Client) Fence(epoch uint64) error {
	c.QueueFence(epoch)
	rs, err := c.Flush()
	if err != nil {
		return err
	}
	switch st := rs[len(rs)-1].Status; st {
	case StatusOK:
		return nil
	case StatusNotFound:
		return fmt.Errorf("netkv: %s has no replication epochs to fence", c.addr)
	default:
		return fmt.Errorf("netkv: fence of %s failed (status %d)", c.addr, st)
	}
}

// QueueScan appends a SCAN (up to limit ascending pairs from key; an
// empty key starts at the smallest) to the batch. One response carries at
// most 65,535 pairs, whatever the limit; a limit of 0 returns none.
func (c *Client) QueueScan(key []byte, limit int) {
	c.queue(OpScan, key, nil, uint32(limit))
}

// QueueScanDesc appends a descending SCAN (up to limit pairs downward
// from key; an empty key starts at the largest) to the batch, capped like
// QueueScan.
func (c *Client) QueueScanDesc(key []byte, limit int) {
	c.queue(OpScanDesc, key, nil, uint32(limit))
}

// Pending returns the number of queued operations.
func (c *Client) Pending() int { return c.n }

func (c *Client) queue(op byte, key, val []byte, limit uint32) {
	if c.n == 0 {
		c.out = newFrame(c.out)
	}
	c.out = append(c.out, op)
	c.out = binary.LittleEndian.AppendUint32(c.out, uint32(len(key)))
	c.out = append(c.out, key...)
	if op == OpScan || op == OpScanDesc {
		c.out = binary.LittleEndian.AppendUint32(c.out, limit)
	} else {
		c.out = binary.LittleEndian.AppendUint32(c.out, uint32(len(val)))
		c.out = append(c.out, val...)
	}
	c.ops = append(c.ops, op)
	c.n++
}

// Flush sends the batch and reads all responses, in request order. The
// responses are decoded in place: the returned slice and every Val, Keys
// and Vals in it alias the client's buffers, valid until the next Flush
// (or Redial). Copy what must outlive that. After a transport error the
// client is broken until Redial: the error (with its underlying cause)
// repeats on every call rather than decaying into short-read noise on a
// half-consumed stream.
func (c *Client) Flush() ([]Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.n == 0 {
		return nil, nil
	}
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	if err := writeFrame(c.w, c.n, c.out); err != nil {
		return nil, c.fail(err)
	}
	rs, err := c.readResponses()
	c.out = keep(c.out)
	c.ops = c.ops[:0]
	c.n = 0
	return rs, err
}

// FlushRetry sends the batch like Flush but, when every queued operation
// is an idempotent read (Get, Scan, ScanDesc, Stat) and the transport
// fails, redials and re-sends the same batch until maxWait elapses —
// safe precisely because re-executing a read changes nothing. Batches
// containing mutations or flush barriers never retry: the dead server
// may have applied them, and only the caller knows whether re-sending is
// safe (the same reason Redial itself is caller-driven).
func (c *Client) FlushRetry(maxWait time.Duration) ([]Response, error) {
	idempotent := c.err == nil
	for _, op := range c.ops {
		switch op {
		case OpGet, OpScan, OpScanDesc, OpStat:
		default:
			idempotent = false
		}
	}
	if !idempotent {
		return c.Flush()
	}
	out := append([]byte(nil), c.out...)
	ops := append([]byte(nil), c.ops...)
	n := c.n
	deadline := time.Now().Add(maxWait)
	for {
		rs, err := c.Flush()
		if err == nil {
			return rs, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, err
		}
		if rerr := c.Redial(remain); rerr != nil {
			return nil, err
		}
		c.out = append(c.out[:0], out...)
		c.ops = append(c.ops[:0], ops...)
		c.n = n
	}
}

// readResponses reads and decodes the response frame for the queued ops
// into c.resps, in place (see readFrame).
func (c *Client) readResponses() ([]Response, error) {
	if c.Timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}
	got, body, err := readFrame(c.r)
	if err != nil {
		return nil, c.fail(err)
	}
	if got != len(c.ops) {
		return nil, c.fail(fmt.Errorf("netkv: response count %d != %d", got, len(c.ops)))
	}
	resps := keep(c.resps)
	for _, op := range c.ops {
		if len(body) < 1 {
			return nil, c.fail(errors.New("netkv: truncated response"))
		}
		rp := Response{Status: body[0]}
		body = body[1:]
		switch op {
		case OpGet, OpStat:
			if len(body) < 4 {
				return nil, c.fail(errors.New("netkv: truncated get response"))
			}
			vlen := binary.LittleEndian.Uint32(body[:4])
			body = body[4:]
			if uint32(len(body)) < vlen {
				return nil, c.fail(errors.New("netkv: truncated get value"))
			}
			rp.Val = body[:vlen]
			body = body[vlen:]
		case OpScan, OpScanDesc:
			if len(body) < 2 {
				return nil, c.fail(errors.New("netkv: truncated scan response"))
			}
			n := int(binary.LittleEndian.Uint16(body[:2]))
			body = body[2:]
			for i := 0; i < n; i++ {
				if len(body) < 4 {
					return nil, c.fail(errors.New("netkv: truncated scan pair"))
				}
				klen := binary.LittleEndian.Uint32(body[:4])
				body = body[4:]
				if uint64(klen)+4 > uint64(len(body)) {
					return nil, c.fail(errors.New("netkv: truncated scan key"))
				}
				rp.Keys = append(rp.Keys, body[:klen])
				body = body[klen:]
				vlen := binary.LittleEndian.Uint32(body[:4])
				body = body[4:]
				if uint32(len(body)) < vlen {
					return nil, c.fail(errors.New("netkv: truncated scan value"))
				}
				rp.Vals = append(rp.Vals, body[:vlen])
				body = body[vlen:]
			}
		}
		resps = append(resps, rp)
	}
	c.resps = resps
	return resps, nil
}

package netkv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"unsafe"
)

// Op codes.
const (
	OpGet byte = iota + 1
	OpSet
	OpDel
	OpScan
	OpScanDesc
	// OpFlush asks a durable server to force every logged mutation to
	// stable storage before responding — the wire-level fsync barrier a
	// client issues after a batch it cannot afford to lose. Servers
	// hosting a volatile index answer StatusNotFound; a failed flush
	// answers StatusErr.
	OpFlush
	// OpStat returns a JSON Stat document (key count, WAL size, current
	// generations, replication role and lag) as a Get-shaped response, so
	// replication health is observable on the wire instead of by scraping
	// logs.
	OpStat
	// OpSubscribe is the replication handshake: a follower sends it as a
	// batch's only request (the key carries the negotiation payload) and,
	// on a leader, the connection leaves the request/response protocol and
	// becomes a replication stream (internal/repl's framing). Servers
	// without a replication source answer StatusNotFound.
	OpSubscribe
	// OpFence tells a server that a higher replication epoch exists (the
	// key carries it, 8 bytes little-endian): a stale leader flips into
	// fenced read-only mode before answering, so no write can land after
	// the fence is acknowledged. Best-effort — fencing also happens on
	// first replication contact with the new lineage — and idempotent.
	// Servers whose index has no epochs answer StatusNotFound.
	OpFence
)

// Status codes.
const (
	StatusOK byte = iota
	StatusNotFound
	// StatusErr reports a server-side failure (e.g. a flush I/O error).
	StatusErr
	// StatusReadOnly rejects a mutation on a replication follower: writes
	// belong on the leader until the follower is promoted.
	StatusReadOnly
	// StatusDegraded rejects a mutation whose owning shard is in degraded
	// read-only mode: its WAL cannot log new writes (full disk, failed
	// fsync), so accepting them would widen the unrecoverable window.
	// Reads keep serving; the shard heals itself in the background and
	// writes resume without a restart.
	StatusDegraded
	// StatusFenced rejects a mutation on a stale leader: a higher
	// replication epoch exists, the refusal happens BEFORE the index
	// mutates, and — unlike a transport error — it proves the operation
	// was not applied, so a client may safely resend it to the new leader.
	StatusFenced
)

// DefaultBatch is the paper's request batch size for Figure 12.
const DefaultBatch = 800

const maxFrame = 64 << 20

// maxScanPairs caps one scan response: its pair count travels as a
// uint16.
const maxScanPairs = 1<<16 - 1

// Request is one operation in a batch.
type Request struct {
	Op    byte
	Key   []byte
	Val   []byte // Set: value; Scan: unused
	Limit uint32 // Scan only
}

// Response is one operation's result.
type Response struct {
	Status byte
	Val    []byte
	// Scan results.
	Keys, Vals [][]byte
}

// bufSize sizes both ends' connection readers and writers. A DefaultBatch
// of 77-byte Sets (61.6 KB) still arrives in one read; bufio passes larger
// frames through as direct reads and writes.
const bufSize = 64 << 10

// hdrLen is a frame header's length: the u32 frame length (which counts
// the u16 after it) and the u16 request or response count.
const hdrLen = 6

var errBadFrame = errors.New("netkv: bad frame length")

// newFrame returns buf emptied down to a reserved header, ready for a
// body to be appended and the frame sent with writeFrame.
func newFrame(buf []byte) []byte { return append(buf[:0], make([]byte, hdrLen)...) }

// writeFrame sends frame (built on newFrame) as a batch of n requests or
// responses: it fills in the header and sends header and body in one
// write.
func writeFrame(w *bufio.Writer, n int, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint16(frame[4:], uint16(n))
	if _, err := w.Write(frame); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame and returns its count and body. A frame that
// fits r's buffer is decoded in place: the body is a view into that
// buffer, valid until r's next read. A larger frame is read into a one-off
// slice.
func readFrame(r *bufio.Reader) (count int, body []byte, err error) {
	hdr, err := r.Peek(hdrLen)
	if err != nil {
		return 0, nil, err
	}
	frameLen := binary.LittleEndian.Uint32(hdr)
	count = int(binary.LittleEndian.Uint16(hdr[4:]))
	if frameLen < 2 || frameLen > maxFrame {
		return 0, nil, errBadFrame
	}
	n := int(frameLen) + 4
	if n <= r.Size() {
		frame, err := r.Peek(n)
		if err != nil {
			return 0, nil, err
		}
		r.Discard(n)
		return count, frame[hdrLen:], nil
	}
	r.Discard(hdrLen)
	body = make([]byte, n-hdrLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return count, body, nil
}

// readRequests decodes one request frame, appending to reqs. Keys and
// values are views into the frame (see readFrame), so they are valid until
// the next read on r: the server reads a connection's next batch only
// after the current one's reply is written, and anything that keeps a
// request's bytes longer copies them.
func readRequests(r *bufio.Reader, reqs []Request) ([]Request, error) {
	count, body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		var rq Request
		if len(body) < 5 {
			return nil, errors.New("netkv: truncated op")
		}
		rq.Op = body[0]
		klen := binary.LittleEndian.Uint32(body[1:5])
		body = body[5:]
		// Widen before adding: klen+4 in uint32 wraps for hostile lengths
		// near 2^32, and the resulting body[:klen] would panic the server.
		if uint64(klen)+4 > uint64(len(body)) {
			return nil, errors.New("netkv: truncated key")
		}
		rq.Key = body[:klen]
		body = body[klen:]
		extra := binary.LittleEndian.Uint32(body[:4])
		body = body[4:]
		if rq.Op == OpScan || rq.Op == OpScanDesc {
			rq.Limit = extra
		} else {
			if uint32(len(body)) < extra {
				return nil, errors.New("netkv: truncated value")
			}
			rq.Val = body[:extra]
			body = body[extra:]
		}
		reqs = append(reqs, rq)
	}
	return reqs, nil
}

// maxKept caps the bytes any one scratch buffer a connection reuses
// across batches may keep: a larger batch's buffer is dropped after use,
// so one big batch cannot pin memory for the life of its connection.
const maxKept = 64 << 10

// keep readies s for reuse by the next batch: emptied, with its used
// elements cleared so they pin nothing, or nil when it has grown past
// maxKept.
func keep[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > maxKept {
		return nil
	}
	clear(s)
	return s[:0]
}

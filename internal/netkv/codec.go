package netkv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
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

// writeFrame frames body as a batch of n requests or responses and sends
// it.
func writeFrame(w *bufio.Writer, n int, body []byte) error {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)+2))
	binary.LittleEndian.PutUint16(hdr[4:], uint16(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

func readRequests(r *bufio.Reader, reqs []Request) ([]Request, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	frameLen := binary.LittleEndian.Uint32(hdr[:4])
	count := binary.LittleEndian.Uint16(hdr[4:])
	if frameLen < 2 || frameLen > maxFrame {
		return nil, errors.New("netkv: bad frame length")
	}
	body := make([]byte, frameLen-2)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	for i := 0; i < int(count); i++ {
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

// Package repl replicates a durable sharded store asynchronously from a
// leader to followers by WAL shipping: the leader tails each shard's
// write-ahead log and streams the raw record payloads — the durability
// encoding is the replication encoding — and each follower applies them
// idempotently through the normal mutation path, so its lock-free read
// and scan paths serve traffic while it trails the leader by a bounded
// tail.
//
// The subscription handshake negotiates per-shard positions (gen, seq):
// the follower states how far it has applied, and the leader resumes the
// tail there. When the position is unreachable — below the leader's GC
// horizon (the generation it needs was deleted by a covering snapshot),
// or beyond the leader's surviving history — the leader streams a
// key-ordered snapshot of the shard's current state off its lock-free
// scan cursor instead (the follower merge-applies it, deleting keys the
// snapshot lacks) and resumes the tail from the position captured just
// before the scan. Shards stream independently; consistency is per-shard
// prefix on the tail path, the natural unit because shard WALs have no
// cross-shard ordering to preserve.
//
// The wire rides the netkv protocol: a follower sends one OpSubscribe
// request and the connection switches into this package's framed stream.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// Handshake magic + version; bumping the version is a wire break.
// Version 2 added epoch fencing: the subscribe payload carries the
// follower's epoch and leadership history, the handshake response carries
// the leader's, and every leader→follower stream frame plus the upstream
// acks are stamped with the sender's epoch.
// Version 3 changed snapshot catch-up to the v2 segment encoding:
// msgSnapChunk bodies carry prefix-compressed pairs (the same
// shared-prefix-length + suffix layout snapshot segments use on disk),
// and the subscribe payload grew a resume section — the follower's
// partially applied snapshot cursors — so a reconnect mid-catch-up
// continues from the last applied key instead of re-sending the
// already-shipped range.
// Version 4 ships each msgSnapChunk as one whole snapshot segment image
// (wal.SegmentBuilder; the image carries its own pair count and CRC), so
// disk and wire share one pair encoder and one decoder, and bounds a
// chunk's decoded key bytes (maxChunkKeyBytes).
const (
	magic        = "WHRP1"
	protoVersion = 4
)

// Handshake status codes.
const (
	hsOK          byte = 0
	hsMismatch    byte = 1 // shard count or boundary disagreement
	hsUnavailable byte = 2 // leader cannot replicate (volatile, closing, bad request)
	hsStale       byte = 3 // the server is not the current leader: the response epoch outbids it
)

// Stream message types. Every message is framed [len u32][type byte][body]
// with len covering type+body; both directions share the framing, so one
// reader loop serves the follower and the leader's ack reader alike.
const (
	msgBatch     byte = 1 // epoch u64, shard u16, gen u64, startSeq u64, count u32, count×(len u32, payload)
	msgSnapBegin byte = 2 // epoch u64, shard u16, gen u64, seq u64 — the position the tail resumes from
	msgSnapChunk byte = 3 // shard u16, segment image (wal.SegmentBuilder)
	msgSnapEnd   byte = 4 // shard u16
	msgHeartbeat byte = 5 // epoch u64, shard u16, gen u64, endSeq u64 — the leader's current end
	msgAck       byte = 6 // epoch u64, shard u16, gen u64, seq u64 — follower's applied position
)

const (
	maxMsg = 64 << 20
	// maxBatchBytes bounds one msgBatch's record payload; maxChunkBytes one
	// snapshot chunk's encoded pair bytes.
	maxBatchBytes = 256 << 10
	maxChunkBytes = 256 << 10
	// maxChunkKeyBytes bounds one snapshot chunk's decoded key bytes. Prefix
	// compression lets a few encoded bytes stand for a whole previous key,
	// so without it a chunk could decode to quadratically more than it
	// weighs. A chunk's first pair is exempt (alone, it decodes to no more
	// than its image), so the follower's budget is max(this, image length).
	maxChunkKeyBytes = 4 << 20
)

var errProto = errors.New("repl: protocol error")

// writeMsg frames one message and flushes it.
func writeMsg(w *bufio.Writer, typ byte, body []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(body)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// writeMsgTruncated frames the message with its true length but ships
// only half the body — the fault injector's torn message. The receiver
// must treat the short frame as a dead connection, never apply a prefix.
func writeMsgTruncated(w *bufio.Writer, typ byte, body []byte) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(body)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return
	}
	w.Write(body[:len(body)/2])
	w.Flush()
}

// readMsg reads one framed message, reusing buf for the body.
func readMsg(r *bufio.Reader, buf []byte) (typ byte, body, nextBuf []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxMsg {
		return 0, nil, buf, fmt.Errorf("%w: message length %d", errProto, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// appendHistory encodes a leadership history: count u16, then per term
// epoch u64 + start-position count u16 + that many (gen u64, seq u64).
func appendHistory(b []byte, hist []shard.EpochEntry) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(hist)))
	for _, e := range hist {
		b = binary.LittleEndian.AppendUint64(b, e.Epoch)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Start)))
		for _, p := range e.Start {
			b = binary.LittleEndian.AppendUint64(b, p.Gen)
			b = binary.LittleEndian.AppendUint64(b, p.Seq)
		}
	}
	return b
}

// decodeHistory parses an encoded history, returning the remaining bytes.
// Allocation is bounded by the payload length, never by the claimed
// counts, so hostile frames cannot balloon memory.
func decodeHistory(rest []byte) ([]shard.EpochEntry, []byte, error) {
	if len(rest) < 2 {
		return nil, nil, fmt.Errorf("%w: history truncated", errProto)
	}
	n := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	var hist []shard.EpochEntry
	for i := 0; i < n; i++ {
		if len(rest) < 10 {
			return nil, nil, fmt.Errorf("%w: history entry truncated", errProto)
		}
		e := shard.EpochEntry{Epoch: binary.LittleEndian.Uint64(rest[:8])}
		ns := int(binary.LittleEndian.Uint16(rest[8:10]))
		rest = rest[10:]
		if len(rest) < ns*16 {
			return nil, nil, fmt.Errorf("%w: history positions truncated", errProto)
		}
		for j := 0; j < ns; j++ {
			e.Start = append(e.Start, wal.Position{
				Gen: binary.LittleEndian.Uint64(rest[:8]),
				Seq: binary.LittleEndian.Uint64(rest[8:16]),
			})
			rest = rest[16:]
		}
		hist = append(hist, e)
	}
	return hist, rest, nil
}

// snapResume is one shard's partially applied snapshot state, carried in
// the subscribe payload: the snapshot's tail-resume position as the
// leader announced it, and the key cursor the follower had applied
// through when the previous connection died.
type snapResume struct {
	shard  int
	pos    wal.Position
	cursor []byte
}

// maxResumeCursor bounds one resume entry's cursor key on the wire.
const maxResumeCursor = 1 << 20

// encodeSubscribe builds the OpSubscribe request payload: the follower's
// epoch, its leadership history, its per-shard applied positions — or no
// positions when it is fresh and the leader should assume genesis
// everywhere — and its in-progress snapshot resume entries, ascending by
// shard.
func encodeSubscribe(epoch uint64, hist []shard.EpochEntry, positions []wal.Position, resume []snapResume) []byte {
	b := append([]byte(magic), protoVersion)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = appendHistory(b, hist)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(positions)))
	for _, p := range positions {
		b = binary.LittleEndian.AppendUint64(b, p.Gen)
		b = binary.LittleEndian.AppendUint64(b, p.Seq)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(resume)))
	for _, r := range resume {
		b = binary.LittleEndian.AppendUint16(b, uint16(r.shard))
		b = binary.LittleEndian.AppendUint64(b, r.pos.Gen)
		b = binary.LittleEndian.AppendUint64(b, r.pos.Seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.cursor)))
		b = append(b, r.cursor...)
	}
	return b
}

// decodeSubscribe parses the handshake payload; nil positions with nil
// error mean a fresh follower. Resume entries must be strictly ascending
// by shard (the encoding is canonical) and their cursors bounded, so a
// hostile payload cannot smuggle duplicates or balloon allocation.
func decodeSubscribe(payload []byte) (epoch uint64, hist []shard.EpochEntry, positions []wal.Position, resume []snapResume, err error) {
	if len(payload) < len(magic)+1+8+2+2 || string(payload[:len(magic)]) != magic {
		return 0, nil, nil, nil, fmt.Errorf("%w: bad subscribe magic", errProto)
	}
	if v := payload[len(magic)]; v != protoVersion {
		return 0, nil, nil, nil, fmt.Errorf("%w: protocol version %d (want %d)", errProto, v, protoVersion)
	}
	rest := payload[len(magic)+1:]
	epoch = binary.LittleEndian.Uint64(rest[:8])
	hist, rest, err = decodeHistory(rest[8:])
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if len(rest) < 2 {
		return 0, nil, nil, nil, fmt.Errorf("%w: subscribe positions truncated", errProto)
	}
	n := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < n*16 {
		return 0, nil, nil, nil, fmt.Errorf("%w: subscribe positions truncated", errProto)
	}
	if n > 0 {
		positions = make([]wal.Position, n)
		for i := range positions {
			positions[i].Gen = binary.LittleEndian.Uint64(rest[:8])
			positions[i].Seq = binary.LittleEndian.Uint64(rest[8:16])
			rest = rest[16:]
		}
	} else {
		rest = rest[n*16:]
	}
	if len(rest) < 2 {
		return 0, nil, nil, nil, fmt.Errorf("%w: subscribe resume truncated", errProto)
	}
	nr := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	for i := 0; i < nr; i++ {
		if len(rest) < 2+16+4 {
			return 0, nil, nil, nil, fmt.Errorf("%w: resume entry truncated", errProto)
		}
		r := snapResume{
			shard: int(binary.LittleEndian.Uint16(rest[:2])),
			pos: wal.Position{
				Gen: binary.LittleEndian.Uint64(rest[2:10]),
				Seq: binary.LittleEndian.Uint64(rest[10:18]),
			},
		}
		cl := binary.LittleEndian.Uint32(rest[18:22])
		rest = rest[22:]
		if cl > maxResumeCursor || uint32(len(rest)) < cl {
			return 0, nil, nil, nil, fmt.Errorf("%w: resume cursor truncated", errProto)
		}
		r.cursor = append([]byte(nil), rest[:cl]...)
		rest = rest[cl:]
		if len(resume) > 0 && resume[len(resume)-1].shard >= r.shard {
			return 0, nil, nil, nil, fmt.Errorf("%w: resume entries out of order", errProto)
		}
		resume = append(resume, r)
	}
	if len(rest) != 0 {
		return 0, nil, nil, nil, fmt.Errorf("%w: subscribe trailing bytes", errProto)
	}
	return epoch, hist, positions, resume, nil
}

// decodeSnapChunk parses a msgSnapChunk body: the shard, then one
// segment image. The key budget is the follower's own, never a number
// the sender supplies: an honest leader cuts every chunk within it, and
// a hostile image that grafts each whole previous key onto the next
// fails the moment its decoded keys pass it, before allocating past it.
// Values alias body, as do keys that share no prefix.
func decodeSnapChunk(body []byte) (shard int, keys, vals [][]byte, err error) {
	if len(body) < 2 {
		return 0, nil, nil, fmt.Errorf("%w: short snapshot chunk", errProto)
	}
	img := body[2:]
	keys, vals, err = wal.DecodeSegment(img, uint64(len(img)), max(maxChunkKeyBytes, uint64(len(img))))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: snapshot chunk: %v", errProto, err)
	}
	return int(binary.LittleEndian.Uint16(body)), keys, vals, nil
}

// writeHandshake sends the leader's handshake response: status, the
// leader's epoch and leadership history, shard count, and the partitioner
// boundaries the follower must route by. On hsStale the epoch is the one
// that outbids this server — the follower records it and looks elsewhere.
func writeHandshake(w *bufio.Writer, status byte, epoch uint64, hist []shard.EpochEntry, nshards int, bounds [][]byte) error {
	b := append([]byte(magic), status)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = appendHistory(b, hist)
	b = binary.LittleEndian.AppendUint16(b, uint16(nshards))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(bounds)))
	for _, bd := range bounds {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(bd)))
		b = append(b, bd...)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.Flush()
}

// errNotLeader reports a server that answered the subscription with the
// ordinary request/response protocol instead of the replication
// handshake: a netkv server with no replication source.
var errNotLeader = errors.New("repl: server is not a replication leader")

// readHandshake parses the leader's handshake response. The magic is read
// and checked on its own first: a non-leader answers OpSubscribe with a
// 7-byte netkv StatusNotFound frame, which must be detected from its
// first bytes — blocking for the full handshake header would stall until
// the read deadline instead of surfacing the refusal.
func readHandshake(r *bufio.Reader) (status byte, epoch uint64, hist []shard.EpochEntry, nshards int, bounds [][]byte, err error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, 0, nil, 0, nil, err
	}
	if string(head) != magic {
		return 0, 0, nil, 0, nil, errNotLeader
	}
	hdr := make([]byte, 1+8+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, 0, nil, err
	}
	status = hdr[0]
	epoch = binary.LittleEndian.Uint64(hdr[1:9])
	nhist := int(binary.LittleEndian.Uint16(hdr[9:11]))
	entry := make([]byte, 10)
	for i := 0; i < nhist; i++ {
		if _, err := io.ReadFull(r, entry); err != nil {
			return 0, 0, nil, 0, nil, err
		}
		e := shard.EpochEntry{Epoch: binary.LittleEndian.Uint64(entry[:8])}
		ns := int(binary.LittleEndian.Uint16(entry[8:10]))
		var pos [16]byte
		for j := 0; j < ns; j++ {
			if _, err := io.ReadFull(r, pos[:]); err != nil {
				return 0, 0, nil, 0, nil, err
			}
			e.Start = append(e.Start, wal.Position{
				Gen: binary.LittleEndian.Uint64(pos[:8]),
				Seq: binary.LittleEndian.Uint64(pos[8:16]),
			})
		}
		hist = append(hist, e)
	}
	tail := make([]byte, 4)
	if _, err := io.ReadFull(r, tail); err != nil {
		return 0, 0, nil, 0, nil, err
	}
	nshards = int(binary.LittleEndian.Uint16(tail[:2]))
	nbounds := int(binary.LittleEndian.Uint16(tail[2:4]))
	var lenBuf [4]byte
	for i := 0; i < nbounds; i++ {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return 0, 0, nil, 0, nil, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > 1<<20 {
			return 0, 0, nil, 0, nil, fmt.Errorf("%w: boundary length %d", errProto, n)
		}
		bd := make([]byte, n)
		if _, err := io.ReadFull(r, bd); err != nil {
			return 0, 0, nil, 0, nil, err
		}
		bounds = append(bounds, bd)
	}
	return status, epoch, hist, nshards, bounds, nil
}

// appendPosMsg encodes the [epoch u64][shard u16][gen u64][seq u64] body
// shared by msgSnapBegin, msgHeartbeat, and msgAck. The epoch stamp is what
// lets either side detect a cross-term message: a follower drops a
// connection whose frames stop matching the handshake epoch, and a leader
// receiving an ack from a higher epoch knows it has been superseded.
func appendPosMsg(b []byte, epoch uint64, shard int, p wal.Position) []byte {
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint16(b, uint16(shard))
	b = binary.LittleEndian.AppendUint64(b, p.Gen)
	return binary.LittleEndian.AppendUint64(b, p.Seq)
}

// decodePosMsg parses a snapshot-begin, heartbeat, or ack body.
func decodePosMsg(body []byte) (epoch uint64, shard int, p wal.Position, err error) {
	if len(body) != 26 {
		return 0, 0, wal.Position{}, fmt.Errorf("%w: position message length %d", errProto, len(body))
	}
	epoch = binary.LittleEndian.Uint64(body[:8])
	shard = int(binary.LittleEndian.Uint16(body[8:10]))
	p.Gen = binary.LittleEndian.Uint64(body[10:18])
	p.Seq = binary.LittleEndian.Uint64(body[18:26])
	return epoch, shard, p, nil
}

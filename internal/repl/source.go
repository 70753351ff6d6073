package repl

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// Sender pacing: pollInterval is how often an idle shard stream re-checks
// its WAL tail (after flushing the leader's buffered records into OS
// visibility), and heartbeatEvery how often it tells the follower the
// leader's end position while idle.
const (
	pollInterval   = 2 * time.Millisecond
	heartbeatEvery = 200 * time.Millisecond
)

// FaultAction is a stream fault hook's verdict on one outbound
// replication message.
type FaultAction int

const (
	// FaultPass sends the message unchanged.
	FaultPass FaultAction = iota
	// FaultDropConn kills the subscriber's connection before the message
	// goes out; the follower reconnects and resumes from its applied
	// position.
	FaultDropConn
	// FaultTruncate sends the frame header and half the body, then kills
	// the connection — a torn message the follower must reject.
	FaultTruncate
	// FaultDelay sleeps the returned duration before sending (a stalled
	// network), then sends normally.
	FaultDelay
)

// StreamFaultFunc inspects one outbound message (its type byte and body)
// and decides its fate. The duration matters only for FaultDelay.
type StreamFaultFunc func(typ byte, body []byte) (FaultAction, time.Duration)

// Source is the leader side of replication for one durable sharded store.
// It serves any number of concurrent subscribers, each on its own
// connection handed over by the netkv server after an OpSubscribe
// handshake; every shard of every subscriber streams independently, so a
// slow shard (or a snapshot catch-up on one) never stalls the others.
type Source struct {
	st *shard.Store

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	fault  StreamFaultFunc
}

// SetStreamFault installs (or, with nil, removes) a fault hook consulted
// for every outbound message on every subscriber stream — the lever the
// convergence-under-faults tests use to drop, delay and tear messages
// without reaching into the transport. Takes effect for in-flight
// subscribers immediately.
func (s *Source) SetStreamFault(fn StreamFaultFunc) {
	s.mu.Lock()
	s.fault = fn
	s.mu.Unlock()
}

func (s *Source) faultFn() StreamFaultFunc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fault
}

// NewSource returns a replication source over st, which should be durable
// (a volatile store has no WAL to ship; subscribers are refused).
func NewSource(st *shard.Store) *Source {
	return &Source{st: st, subs: make(map[*subscriber]struct{})}
}

// Close detaches every subscriber (their connections are closed) and
// refuses new ones. It must run before the netkv server's Close: the
// server waits for connection handlers, and a subscriber's handler only
// returns when its stream dies.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.DisconnectAll()
}

// DisconnectAll drops every current subscriber without closing the
// source: each follower's backoff loop re-subscribes from its applied
// position and resumes the tail. An admin lever (and the reconnect tests'
// fault injector).
func (s *Source) DisconnectAll() {
	s.mu.Lock()
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.fail()
	}
}

// FillStat adds the leader's per-follower lag to an OpStat response:
// records streamed but not yet acked, summed over shards (-1 when any
// shard's sent/acked positions span a generation rotation and the
// distance cannot be counted from positions alone).
func (s *Source) FillStat(st *netkv.Stat) {
	st.Role = "leader"
	st.Epoch = s.st.Epoch()
	st.FencedBy = s.st.FencedBy()
	s.mu.Lock()
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.mu.Lock()
		fs := netkv.FollowerStat{
			Remote:        sub.remote,
			AckAgeMS:      time.Since(sub.lastAck).Milliseconds(),
			Acked:         append([]wal.Position(nil), sub.acked...),
			SnapshotsSent: sub.snapsSent,
		}
		for i, sent := range sub.sent {
			if fs.LagRecords < 0 {
				break
			}
			acked := sub.acked[i]
			switch {
			case sent.Gen != acked.Gen:
				fs.LagRecords = -1
			case sent.Seq > acked.Seq:
				fs.LagRecords += int64(sent.Seq - acked.Seq)
			}
		}
		sub.mu.Unlock()
		st.Followers = append(st.Followers, fs)
	}
}

func (s *Source) register(sub *subscriber) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.subs[sub] = struct{}{}
	return true
}

func (s *Source) unregister(sub *subscriber) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}

// ServeSubscriber performs the handshake for one OpSubscribe request and,
// on success, streams to the follower until the connection dies or the
// source closes. It matches the netkv ServerOptions.Subscribe hook: the
// connection is this goroutine's to consume, and returning closes it.
func (s *Source) ServeSubscriber(conn net.Conn, r *bufio.Reader, w *bufio.Writer, payload []byte) {
	n := s.st.NumShards()
	bounds := s.st.Bounds()
	fe, fhist, positions, resume, err := decodeSubscribe(payload)
	if err != nil || !s.st.Durable() {
		writeHandshake(w, hsUnavailable, s.st.Epoch(), nil, n, nil)
		return
	}
	leaderEpoch := s.st.Epoch()
	leaderHist := s.st.EpochHistory()
	// Fencing, both directions. A subscriber from a higher epoch proves a
	// newer leadership term exists: fence ourselves BEFORE answering, so no
	// write can sneak in between learning of the term and refusing. A
	// subscriber from any epoch gets hsStale if we are already fenced — a
	// fenced node must not feed a replica that would then trust a
	// superseded lineage.
	if fe > leaderEpoch {
		s.st.Fence(fe)
		writeHandshake(w, hsStale, fe, nil, n, nil)
		return
	}
	if fb := s.st.FencedBy(); fb != 0 {
		writeHandshake(w, hsStale, fb, nil, n, nil)
		return
	}
	if positions != nil && len(positions) != n {
		writeHandshake(w, hsMismatch, leaderEpoch, leaderHist, n, bounds)
		return
	}
	// A fresh follower (no positions) tails from genesis: the empty state
	// is a valid prefix of any lineage. A follower with state resumes the
	// tail only when its leadership history matches ours verbatim — any
	// difference means its positions are coordinates in some other
	// leader's WAL, and every shard must be corrected by snapshot first.
	forceSnap := false
	if positions == nil {
		positions = make([]wal.Position, n)
		for i := range positions {
			positions[i] = wal.Genesis
		}
	} else if !shard.HistoryEqual(fhist, leaderHist) {
		forceSnap = true
	}
	// Snapshot-resume entries: a follower that lost its connection mid
	// catch-up reports how far each shard's snapshot had applied, and the
	// leader continues the scan from that cursor instead of re-sending
	// the completed range. Only meaningful when the histories match — a
	// foreign lineage's cursor pairs with a foreign resume position.
	resumeFor := make([]*snapResume, n)
	if !forceSnap {
		for i := range resume {
			if resume[i].shard < n {
				r := resume[i]
				resumeFor[r.shard] = &r
			}
		}
	}
	sub := &subscriber{
		src:    s,
		epoch:  leaderEpoch,
		remote: conn.RemoteAddr().String(),
		conn:   conn,
		w:      w,
		sent:   append([]wal.Position(nil), positions...),
		acked:  append([]wal.Position(nil), positions...),
		done:   make(chan struct{}),
	}
	sub.lastAck = time.Now()
	if !s.register(sub) {
		writeHandshake(w, hsUnavailable, leaderEpoch, nil, n, nil)
		return
	}
	defer s.unregister(sub)
	if err := writeHandshake(w, hsOK, leaderEpoch, leaderHist, n, bounds); err != nil {
		return
	}
	sub.wg.Add(1 + n)
	go sub.readAcks(r)
	for i := 0; i < n; i++ {
		go sub.streamShard(s.st, i, positions[i], forceSnap, resumeFor[i])
	}
	sub.wg.Wait()
}

// subscriber is one follower connection on the leader: per-shard sender
// goroutines multiplex framed messages onto the shared writer, and the
// ack reader tracks how far the follower has durably applied.
type subscriber struct {
	src    *Source
	epoch  uint64 // the leader epoch this stream serves, fixed at handshake
	remote string
	conn   net.Conn
	w      *bufio.Writer
	wmu    sync.Mutex // serializes whole messages from the shard senders

	mu        sync.Mutex
	sent      []wal.Position // last position streamed per shard
	acked     []wal.Position // last position acked per shard
	lastAck   time.Time
	snapsSent int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// fail tears the subscriber down: every sender sees done, and the closed
// connection unblocks the ack reader.
func (sub *subscriber) fail() {
	sub.closeOnce.Do(func() {
		close(sub.done)
		sub.conn.Close()
	})
}

func (sub *subscriber) stopped() bool {
	select {
	case <-sub.done:
		return true
	default:
		return false
	}
}

// sleep waits d or until the subscriber dies.
func (sub *subscriber) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-sub.done:
	case <-t.C:
	}
}

// send writes one framed message; any transport error kills the stream.
// The source's fault hook, when armed, may drop the connection, tear the
// frame, or delay it first.
func (sub *subscriber) send(typ byte, body []byte) bool {
	if fn := sub.src.faultFn(); fn != nil {
		switch act, d := fn(typ, body); act {
		case FaultDropConn:
			sub.fail()
			return false
		case FaultTruncate:
			sub.wmu.Lock()
			writeMsgTruncated(sub.w, typ, body)
			sub.wmu.Unlock()
			sub.fail()
			return false
		case FaultDelay:
			sub.sleep(d)
			if sub.stopped() {
				return false
			}
		}
	}
	sub.wmu.Lock()
	err := writeMsg(sub.w, typ, body)
	sub.wmu.Unlock()
	if err != nil {
		sub.fail()
		return false
	}
	return true
}

func (sub *subscriber) setSent(shard int, p wal.Position) {
	sub.mu.Lock()
	sub.sent[shard] = p
	sub.mu.Unlock()
}

// readAcks consumes the follower→leader direction: applied-position acks.
// An ack stamped with a higher epoch than this stream's is proof the
// follower moved to a newer leadership term mid-connection: the leader
// fences itself and drops the stream.
func (sub *subscriber) readAcks(r *bufio.Reader) {
	defer sub.wg.Done()
	defer sub.fail()
	var buf []byte
	for {
		typ, body, next, err := readMsg(r, buf)
		if err != nil || typ != msgAck {
			return
		}
		buf = next
		epoch, shard, p, err := decodePosMsg(body)
		if err != nil || shard >= len(sub.acked) {
			return
		}
		if epoch > sub.epoch {
			sub.src.st.Fence(epoch)
			return
		}
		sub.mu.Lock()
		sub.acked[shard] = p
		sub.lastAck = time.Now()
		sub.mu.Unlock()
	}
}

// streamShard pumps one shard's WAL to the follower from pos onward,
// falling back to a snapshot whenever the position is unreachable: below
// the GC horizon (its generation was deleted by a covering snapshot),
// beyond the leader's history (the follower applied records a crashed
// leader lost), or pointing into a sealed generation past its end.
func (sub *subscriber) streamShard(st *shard.Store, shard int, pos wal.Position, forceSnap bool, resume *snapResume) {
	defer sub.wg.Done()
	ws := st.WAL(shard)
	// takeSnap sends the correcting snapshot. The first one may resume a
	// previous connection's partial snapshot: the scan restarts at the
	// follower's cursor and msgSnapBegin re-announces the ORIGINAL resume
	// position — the tail replayed from there covers every mutation to the
	// already-shipped range since the original scan, so skipping that
	// range loses nothing. Valid only while the original position is still
	// reachable; once consumed (or unusable) later snapshots are full.
	takeSnap := func() (wal.Position, bool) {
		r := resume
		resume = nil
		if r != nil {
			active := ws.ActiveGen()
			if r.pos.Gen == active || (r.pos.Gen < active && ws.HasWAL(r.pos.Gen)) {
				return sub.sendSnapshotFrom(st, shard, r.pos, r.cursor)
			}
		}
		return sub.sendSnapshot(st, shard)
	}
	if forceSnap {
		// History mismatch at handshake: the follower's position is in a
		// foreign lineage's coordinates — correct it before any tailing.
		next, ok := takeSnap()
		if !ok {
			return
		}
		pos = next
	}
	for !sub.stopped() {
		active := ws.ActiveGen()
		reachable := pos.Gen == active ||
			(pos.Gen < active && ws.HasWAL(pos.Gen))
		if !reachable {
			next, ok := takeSnap()
			if !ok {
				return // transport dead; fail() already ran
			}
			pos = next
			continue
		}
		sr, err := ws.OpenSegment(pos.Gen)
		if err != nil {
			if !ws.HasWAL(pos.Gen) {
				continue // unlinked under us: the reachable check falls back
			}
			// The file exists but won't open (fd exhaustion, permissions):
			// retry at the poll cadence rather than spinning on stat+open.
			sub.sleep(pollInterval)
			continue
		}
		next, fallback := sub.streamSegment(ws, shard, sr, pos)
		sr.Close()
		if fallback {
			next, ok := takeSnap()
			if !ok {
				return
			}
			pos = next
			continue
		}
		pos = next
	}
}

// streamSegment tails one generation's file from pos: it skips the
// follower's already-applied prefix, streams batches as records become
// visible, and returns the next generation's start once the segment is
// sealed and drained. fallback reports that the follower's position does
// not exist in this segment (divergence) and a snapshot must correct it.
func (sub *subscriber) streamSegment(ws *wal.Store, shard int, sr *wal.SegmentReader, pos wal.Position) (next wal.Position, fallback bool) {
	// Skip the prefix the follower already has. On a sealed generation a
	// short skip is divergence; on the active one it may just be records
	// still buffered in the leader, distinguished via EndPos.
	for sr.Seq() < pos.Seq {
		if sub.stopped() {
			return pos, false
		}
		if sr.Skip(pos.Seq-sr.Seq()) == 0 {
			if ws.ActiveGen() > sr.Gen() {
				// Sealed under us: the file is final now, so one more
				// attempt is authoritative.
				if sr.Skip(pos.Seq-sr.Seq()) == 0 {
					return pos, true
				}
				continue
			}
			ws.FlushBuffered()
			if end := ws.EndPos(); end.Gen == sr.Gen() && end.Seq < pos.Seq {
				return pos, true
			}
			sub.sleep(pollInterval)
		}
	}

	var body []byte
	lastBeat := time.Now()
	sealed := false
	for !sub.stopped() {
		body = body[:0]
		body = binary.LittleEndian.AppendUint64(body, sub.epoch)
		body = binary.LittleEndian.AppendUint16(body, uint16(shard))
		body = binary.LittleEndian.AppendUint64(body, sr.Gen())
		body = binary.LittleEndian.AppendUint64(body, sr.Seq())
		countAt := len(body)
		body = append(body, 0, 0, 0, 0)
		count := uint32(0)
		for len(body) < maxBatchBytes {
			rec, ok := sr.Next()
			if !ok {
				break
			}
			body = binary.LittleEndian.AppendUint32(body, uint32(len(rec)))
			body = append(body, rec...)
			count++
		}
		if count > 0 {
			binary.LittleEndian.PutUint32(body[countAt:], count)
			if !sub.send(msgBatch, body) {
				return pos, false
			}
			pos = wal.Position{Gen: sr.Gen(), Seq: sr.Seq()}
			sub.setSent(shard, pos)
			continue
		}
		if sealed {
			// Drained a final file: resume at the next generation.
			return wal.Position{Gen: sr.Gen() + 1, Seq: 0}, false
		}
		if ws.ActiveGen() > sr.Gen() {
			// Rotated under us: one more drain pass picks up anything
			// appended between our last read and the seal.
			sealed = true
			continue
		}
		ws.FlushBuffered()
		if time.Since(lastBeat) >= heartbeatEvery {
			lastBeat = time.Now()
			if !sub.send(msgHeartbeat, appendPosMsg(body[:0], sub.epoch, shard, ws.EndPos())) {
				return pos, false
			}
		}
		sub.sleep(pollInterval)
	}
	return pos, false
}

// sendSnapshot streams one shard's current state as a key-ordered
// snapshot — straight off the leader's lock-free scan cursor, chunk by
// chunk, never materializing the shard in memory — and returns the
// position the tail resumes from.
//
// The resume position is EndPos read BEFORE the scan starts: a record
// counted there had its mutation applied under the same leaf lock that
// logged it, so the scan (which observes every leaf strictly later)
// reflects every record below the position; records logged during the
// scan may or may not be captured, and the resumed tail re-applies them
// idempotently. This is why the fallback needs no snapshot file: it
// serves a follower below the GC horizon, one beyond a truncated
// history (a crashed leader that lost an unsynced tail), and a leader
// that has never snapshotted, identically.
func (sub *subscriber) sendSnapshot(st *shard.Store, shard int) (wal.Position, bool) {
	return sub.sendSnapshotFrom(st, shard, st.WAL(shard).EndPos(), nil)
}

// sendSnapshotFrom is sendSnapshot's general form: the scan starts at
// `start` (nil for the whole shard) and msgSnapBegin announces `pos` —
// for a full snapshot the EndPos just read, for a resumed one the
// previous connection's original position (which the caller verified is
// still reachable; re-reading EndPos here would skip mutations to the
// already-shipped range).
func (sub *subscriber) sendSnapshotFrom(st *shard.Store, shard int, pos wal.Position, start []byte) (wal.Position, bool) {
	if !sub.send(msgSnapBegin, appendPosMsg(nil, sub.epoch, shard, pos)) {
		return wal.Position{}, false
	}
	scan := func(fn func(k, v []byte) bool) { st.ShardScan(shard, start, fn) }
	if !snapChunks(shard, scan, func(b []byte) bool { return sub.send(msgSnapChunk, b) }) {
		return wal.Position{}, false
	}
	if !sub.send(msgSnapEnd, binary.LittleEndian.AppendUint16(nil, uint16(shard))) {
		return wal.Position{}, false
	}
	sub.mu.Lock()
	sub.snapsSent++
	sub.mu.Unlock()
	sub.setSent(shard, pos)
	return pos, true
}

// snapChunks cuts the ascending pairs scan yields into msgSnapChunk
// bodies for shard, each one segment image, and hands them to send; it
// reports false as soon as send does. Every chunk restarts prefix
// compression, so it decodes with no context, and a chunk is cut once
// its image reaches maxChunkBytes or before its decoded keys would pass
// maxChunkKeyBytes, save its first pair: the follower's decode budget.
func snapChunks(shard int, scan func(fn func(k, v []byte) bool), send func(body []byte) bool) bool {
	var seg wal.SegmentBuilder
	var body []byte
	flush := func() bool {
		body = binary.LittleEndian.AppendUint16(body[:0], uint16(shard))
		body = append(body, seg.Finish()...)
		return send(body)
	}
	ok := true
	scan(func(k, v []byte) bool {
		if seg.Pairs() > 0 && seg.KeyBytes()+uint64(len(k)) > maxChunkKeyBytes {
			if ok = flush(); !ok {
				return false
			}
		}
		seg.Add(k, v)
		if seg.Size() >= maxChunkBytes {
			ok = flush()
		}
		return ok
	})
	return ok && (seg.Pairs() == 0 || flush())
}

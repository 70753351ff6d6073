package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// Options configures a Follower.
type Options struct {
	// Leader is the leader's netkv address.
	Leader string
	// Dir roots the follower's own durable store (its WAL records the
	// applied mutations and, interleaved, the applied leader positions, so
	// a restarted follower resumes the tail instead of resyncing). Empty
	// means a volatile follower that resyncs from scratch every start.
	Dir string
	// Durability configures the follower's WAL; meaningful only with Dir.
	Durability wal.Options
	// AckInterval is how often applied positions are reported upstream
	// (default 100ms) — the leader's lag visibility, not a correctness
	// knob.
	AckInterval time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff (default
	// 100ms/5s).
	BackoffMin, BackoffMax time.Duration
	// AutoPromote arms leader-loss failover: when no leader contact
	// (message or successful handshake) happens for HeartbeatTimeout, the
	// follower promotes itself — bumping the replication epoch past any it
	// has observed, so the old leader is fenced on first contact with the
	// new lineage.
	AutoPromote bool
	// HeartbeatTimeout is the silence that triggers auto-promotion
	// (default 2s; the leader heartbeats idle streams every 200ms).
	HeartbeatTimeout time.Duration
	// OnPromote, when non-nil, runs after an automatic promotion with the
	// newly-writable store. Manual Promote calls do not invoke it.
	OnPromote func(*shard.Store)
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

func (o *Options) normalize() {
	if o.AckInterval <= 0 {
		o.AckInterval = 100 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
}

// Follower subscribes a local sharded store to a leader and keeps it
// converging: WAL batches apply through the normal mutation path (so the
// lock-free read/scan paths serve traffic throughout), snapshot catch-up
// merge-applies a shard image when the tail is unreachable, and applied
// positions are logged into the follower's own WAL for durable resume.
// Reads go to Store; writes belong on the leader until Promote.
type Follower struct {
	o  Options
	st *shard.Store

	mu        sync.Mutex
	applied   []wal.Position
	leaderEnd []wal.Position
	snap      map[int]*snapState
	conn      net.Conn
	lastAck   time.Time
	connEpoch uint64        // leader epoch of the live connection
	resync    *resyncTarget // full-resync in progress (history mismatch)

	// adopted is closed once the store first runs the leader's lineage:
	// at a handshake whose history already matches (or that created the
	// store), or when a lineage resync's AdoptHistory has returned. Scan
	// convergence alone can be seen a moment before that adoption.
	adopted   chan struct{}
	adoptOnce sync.Once

	recordsApplied   atomic.Int64
	snapshotsApplied atomic.Int64
	connected        atomic.Bool
	promoted         atomic.Bool
	everConnected    atomic.Bool
	observedEpoch    atomic.Uint64 // highest leader epoch ever seen
	lastContact      atomic.Int64  // unix nanos of the last leader contact

	// lifeMu serializes Promote and Close — the auto-promote monitor races
	// both a manual promotion and a shutdown, and exactly one must win.
	lifeMu sync.Mutex
	closed bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// monWG tracks the auto-promote monitor separately from wg: the
	// monitor itself calls Promote→halt→wg.Wait(), so putting it in wg
	// would self-deadlock.
	monWG sync.WaitGroup
}

// resyncTarget is the lineage the follower is switching to: when the
// handshake finds its leadership history differs from the leader's, every
// shard is corrected by snapshot, and only once the last one lands is the
// leader's (epoch, history) adopted and persisted. A crash mid-resync
// leaves the old history in place, so the next handshake resyncs again —
// never a half-adopted lineage.
type resyncTarget struct {
	epoch   uint64
	hist    []shard.EpochEntry
	pending map[int]bool
}

// snapState is one shard's in-progress snapshot catch-up: the follower's
// pre-existing keys (key-ordered, like the incoming chunks) are merged
// against the stream, so stale keys are deleted and live ones updated
// through the same mutation path as everything else. pos is where the
// tail resumes once the merge completes. The merge is incremental —
// cursor bounds the local keys already reconciled, and each chunk
// reconciles only the range it covers, in bounded batches — so the
// follower never materializes the shard, mirroring the leader's
// streaming side.
type snapState struct {
	pos    wal.Position
	cursor []byte // reconcile scans resume here; nil = start of the shard
}

// Start opens (or creates) the local store, performs the initial
// subscribe handshake — a fresh follower learns the leader's partitioner
// boundaries from it, since routing must be byte-identical on both ends —
// and begins streaming in the background, reconnecting with backoff when
// the connection drops. It fails fast when the leader is unreachable or
// incompatible at start.
func Start(o Options) (*Follower, error) {
	o.normalize()
	f := &Follower{o: o, stop: make(chan struct{}), adopted: make(chan struct{})}

	// A durable follower that has run before recovers its store (the
	// MANIFEST pins the partitioning) and its applied positions first, so
	// the handshake can resume the tail.
	if o.Dir != "" {
		if _, err := vfs.OrOS(o.Durability.FS).Stat(filepath.Join(o.Dir, "MANIFEST")); err == nil {
			st, err := shard.Open(shard.Options{Dir: o.Dir, Durability: o.Durability})
			if err != nil {
				return nil, err
			}
			f.st = st
			f.applied = make([]wal.Position, st.NumShards())
			for i := range f.applied {
				f.applied[i] = wal.Genesis
				if p, ok := st.WAL(i).RecoveredPosition(); ok {
					f.applied[i] = p
				}
			}
		}
	}

	conn, r, err := f.handshake()
	if err != nil {
		if f.st != nil {
			f.st.Close()
		}
		return nil, err
	}
	f.leaderEnd = make([]wal.Position, f.st.NumShards())
	f.snap = make(map[int]*snapState)
	f.setConn(conn)
	f.wg.Add(1)
	go f.run(conn, r)
	if o.AutoPromote {
		f.monWG.Add(1)
		go f.monitor()
	}
	return f, nil
}

// Store returns the follower's local sharded store: the read surface
// (point gets, scans, batched reads, pinned readers) is live the whole
// time, serving whatever prefix has been applied.
func (f *Follower) Store() *shard.Store { return f.st }

func (f *Follower) logf(format string, args ...any) {
	if f.o.Logf != nil {
		f.o.Logf(format, args...)
	}
}

func (f *Follower) stopping() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

func (f *Follower) setConn(c net.Conn) {
	f.mu.Lock()
	f.conn = c
	f.mu.Unlock()
	f.connected.Store(c != nil)
}

// handshake dials the leader and negotiates positions. On the very first
// contact of a fresh follower it also creates the local store from the
// leader's boundaries.
func (f *Follower) handshake() (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", f.o.Leader, f.o.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: dial leader %s: %w", f.o.Leader, err)
	}
	fail := func(err error) (net.Conn, *bufio.Reader, error) {
		conn.Close()
		return nil, nil, err
	}
	var positions []wal.Position
	var ownEpoch uint64
	var ownHist []shard.EpochEntry
	var resume []snapResume
	if f.st != nil {
		positions = f.appliedSnapshot()
		ownEpoch = f.st.Epoch()
		ownHist = f.st.EpochHistory()
		// Half-finished snapshot merges survive the reconnect: report each
		// one's announced position and applied-through cursor so the leader
		// can continue the scan instead of re-sending completed ranges.
		f.mu.Lock()
		for sh, st := range f.snap {
			if st.cursor != nil {
				resume = append(resume, snapResume{shard: sh, pos: st.pos, cursor: st.cursor})
			}
		}
		f.mu.Unlock()
		sort.Slice(resume, func(i, j int) bool { return resume[i].shard < resume[j].shard })
	}
	// The subscribe request travels as one netkv batch frame carrying a
	// single OpSubscribe whose key is the handshake payload; the response
	// and everything after it are this package's framing.
	payload := encodeSubscribe(ownEpoch, ownHist, positions, resume)
	var req []byte
	req = binary.LittleEndian.AppendUint32(req, uint32(2+1+4+len(payload)+4))
	req = binary.LittleEndian.AppendUint16(req, 1)
	req = append(req, netkv.OpSubscribe)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(payload)))
	req = append(req, payload...)
	req = binary.LittleEndian.AppendUint32(req, 0)
	if _, err := conn.Write(req); err != nil {
		return fail(fmt.Errorf("repl: subscribe to %s: %w", f.o.Leader, err))
	}
	// A deadline brackets the handshake: a non-leader's refusal frame is
	// detected from its first bytes (errNotLeader), and a server that
	// sends nothing at all must not block the magic read forever.
	conn.SetReadDeadline(time.Now().Add(f.o.DialTimeout))
	// 64 KiB, as a netkv connection's: messages larger than that (WAL
	// batches and snapshot chunks run to 256 KiB) pass through as direct
	// reads.
	r := bufio.NewReaderSize(conn, 64<<10)
	status, leaderEpoch, leaderHist, nshards, bounds, err := readHandshake(r)
	if err != nil {
		if errors.Is(err, errNotLeader) {
			return fail(fmt.Errorf("repl: %s is not a replication leader (serve it with -dir)", f.o.Leader))
		}
		return fail(fmt.Errorf("repl: handshake with %s: %w", f.o.Leader, err))
	}
	conn.SetReadDeadline(time.Time{})
	if leaderEpoch > f.observedEpoch.Load() {
		f.observedEpoch.Store(leaderEpoch)
	}
	switch status {
	case hsOK:
	case hsMismatch:
		return fail(fmt.Errorf("repl: leader %s has %d shards, local store has %d",
			f.o.Leader, nshards, len(positions)))
	case hsStale:
		return fail(fmt.Errorf("repl: %s is a stale leader, outbid by epoch %d", f.o.Leader, leaderEpoch))
	default:
		return fail(fmt.Errorf("repl: leader %s refused subscription (volatile or closing)", f.o.Leader))
	}
	if ownEpoch > leaderEpoch {
		// Defensive: a correct leader fences itself and answers hsStale on
		// seeing our higher epoch. Never follow a lower-epoch lineage.
		return fail(fmt.Errorf("repl: leader %s is at epoch %d, below ours (%d)",
			f.o.Leader, leaderEpoch, ownEpoch))
	}
	if f.st == nil {
		st, err := f.createStore(bounds)
		if err != nil {
			return fail(err)
		}
		// A fresh store is the empty prefix of every lineage: adopt the
		// leader's outright so a restart re-handshakes with it.
		st.AdoptHistory(leaderEpoch, leaderHist)
		f.st = st
		f.applied = make([]wal.Position, st.NumShards())
		for i := range f.applied {
			f.applied[i] = wal.Genesis
		}
	} else if !boundsEqual(f.st.Bounds(), bounds) {
		return fail(fmt.Errorf("repl: leader %s partitioner boundaries differ from the local store's", f.o.Leader))
	}
	f.mu.Lock()
	f.connEpoch = leaderEpoch
	f.resync = nil
	if positions != nil && !shard.HistoryEqual(ownHist, leaderHist) {
		// Different lineage: the leader snapshots every shard before any
		// tailing (it made the same comparison). Adopt its history only
		// once the last correction lands.
		pending := make(map[int]bool, f.st.NumShards())
		for i := 0; i < f.st.NumShards(); i++ {
			pending[i] = true
		}
		f.resync = &resyncTarget{epoch: leaderEpoch, hist: leaderHist, pending: pending}
		f.logf("repl: leader %s lineage differs (epoch %d vs %d): full snapshot resync",
			f.o.Leader, leaderEpoch, ownEpoch)
	} else {
		f.markAdopted()
	}
	f.mu.Unlock()
	f.lastContact.Store(time.Now().UnixNano())
	f.everConnected.Store(true)
	return conn, r, nil
}

func (f *Follower) createStore(bounds [][]byte) (*shard.Store, error) {
	p := shard.NewExplicit(bounds)
	if !boundsEqual(p.Bounds(), bounds) {
		return nil, errors.New("repl: leader sent non-canonical partitioner boundaries")
	}
	if f.o.Dir == "" {
		return shard.New(shard.Options{Partitioner: p}), nil
	}
	return shard.Open(shard.Options{Dir: f.o.Dir, Partitioner: p, Durability: f.o.Durability})
}

func boundsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// run is the streaming loop: apply until the connection dies, then
// reconnect with backoff (re-handshaking from the current applied
// positions) until promoted or closed.
func (f *Follower) run(conn net.Conn, r *bufio.Reader) {
	defer f.wg.Done()
	backoff := f.o.BackoffMin
	for {
		err := f.stream(conn, r)
		conn.Close()
		f.setConn(nil)
		if f.stopping() {
			// Keep f.snap as-is: after a Promote/Close, CatchingUp reports
			// which shards a half-finished merge was abandoned on.
			return
		}
		f.discardSnapStates()
		f.logf("repl: stream from %s ended: %v; reconnecting", f.o.Leader, err)
		for {
			// Jittered (uniform in [backoff/2, backoff]): followers that all
			// lost the same leader must not redial it in lockstep.
			t := time.NewTimer(backoff/2 + rand.N(backoff/2+1))
			select {
			case <-f.stop:
				t.Stop()
				return
			case <-t.C:
			}
			if backoff *= 2; backoff > f.o.BackoffMax {
				backoff = f.o.BackoffMax
			}
			c2, r2, err := f.handshake()
			if err != nil {
				f.logf("repl: reconnect: %v", err)
				continue
			}
			conn, r = c2, r2
			f.setConn(conn)
			backoff = f.o.BackoffMin
			break
		}
	}
}

// discardSnapStates resets per-connection catch-up state on reconnect.
// Half-finished snapshot merges are KEPT: the next handshake offers them
// as resume entries, and snapBegin decides per shard whether the leader
// actually resumed (same announced position — cursor stands) or started
// over (different position — fresh state).
func (f *Follower) discardSnapStates() {
	f.mu.Lock()
	// A half-finished lineage resync restarts from scratch: the next
	// handshake re-detects the history mismatch.
	f.resync = nil
	f.mu.Unlock()
}

// stream reads and applies messages until the connection errors. Every
// epoch-stamped message must match the handshake epoch — a frame from
// another term means the sender's identity changed mid-connection, and the
// only safe response is to drop the stream and re-handshake.
//
// A failed ack write does not end the stream at once: frames the leader
// flushed before it closed may still sit in r, and dropping them would
// leave the snapshot resume cursors behind what was sent — the next
// handshake would then re-request ranges this connection already carried.
// The write error is latched instead: no more acks are written, reading
// and applying continue until the read fails (bounded by DialTimeout),
// and the ack error is returned.
func (f *Follower) stream(conn net.Conn, r *bufio.Reader) error {
	w := bufio.NewWriterSize(conn, 1<<16)
	f.mu.Lock()
	f.lastAck = time.Now()
	epoch := f.connEpoch
	f.mu.Unlock()
	var buf []byte
	var ackErr error
	for {
		typ, body, next, err := readMsg(r, buf)
		if err != nil {
			if ackErr != nil {
				return ackErr
			}
			return err
		}
		buf = next
		f.lastContact.Store(time.Now().UnixNano())
		switch typ {
		case msgBatch:
			err = f.applyBatch(body, epoch)
		case msgSnapBegin:
			err = f.snapBegin(body, epoch)
		case msgSnapChunk:
			err = f.snapChunk(body)
		case msgSnapEnd:
			err = f.snapEnd(body)
		case msgHeartbeat:
			var e uint64
			var shard int
			var p wal.Position
			if e, shard, p, err = decodePosMsg(body); err == nil {
				if e != epoch {
					err = fmt.Errorf("%w: heartbeat from epoch %d on an epoch-%d stream", errProto, e, epoch)
				} else if shard < len(f.leaderEnd) {
					f.mu.Lock()
					f.leaderEnd[shard] = p
					f.mu.Unlock()
				}
			}
		default:
			err = fmt.Errorf("%w: unexpected message type %d", errProto, typ)
		}
		if err != nil {
			return err
		}
		// A finished snapshot catch-up acks immediately — it may have moved
		// the position a whole generation — the rest rate-limit.
		if ackErr == nil {
			if ackErr = f.maybeAck(w, typ == msgSnapEnd); ackErr != nil {
				conn.SetReadDeadline(time.Now().Add(f.o.DialTimeout))
			}
		}
	}
}

// applyBatch applies one shard's WAL batch idempotently: records the
// follower already holds (an overlap from a resumed stream) are skipped by
// position arithmetic, the rest run through the store's normal mutation
// path — and therefore into the follower's own WAL — and the new position
// is logged durably after them, so prefix semantics covers both.
func (f *Follower) applyBatch(body []byte, epoch uint64) error {
	if len(body) < 30 {
		return fmt.Errorf("%w: short batch", errProto)
	}
	e := binary.LittleEndian.Uint64(body[:8])
	shard := int(binary.LittleEndian.Uint16(body[8:10]))
	gen := binary.LittleEndian.Uint64(body[10:18])
	start := binary.LittleEndian.Uint64(body[18:26])
	count := binary.LittleEndian.Uint32(body[26:30])
	rest := body[30:]
	if e != epoch {
		return fmt.Errorf("%w: batch from epoch %d on an epoch-%d stream", errProto, e, epoch)
	}
	if shard >= f.st.NumShards() {
		return fmt.Errorf("%w: batch for shard %d", errProto, shard)
	}
	cur := f.appliedPos(shard)
	if gen == cur.Gen && start > cur.Seq {
		// A batch starting beyond the applied position would silently skip
		// the records in between (lost to a dropped or torn message):
		// treat it as a dead stream and reconnect, which re-handshakes
		// from the position we actually hold.
		return fmt.Errorf("%w: batch gap on shard %d: starts at %d, applied through %d",
			errProto, shard, start, cur.Seq)
	}
	var skip uint64
	if gen == cur.Gen && start < cur.Seq {
		skip = cur.Seq - start
	}
	applied := 0
	for i := uint64(0); i < uint64(count); i++ {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated batch record", errProto)
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return fmt.Errorf("%w: truncated batch record", errProto)
		}
		payload := rest[:n]
		rest = rest[n:]
		if i < skip {
			continue
		}
		if err := f.applyRecord(payload); err != nil {
			return err
		}
		applied++
	}
	f.recordsApplied.Add(int64(applied))
	end := wal.Position{Gen: gen, Seq: start + uint64(count)}
	if !cur.Less(end) {
		// A fully-overlapping replay (possible across a reconnect) must
		// never move the position backward.
		return nil
	}
	f.setApplied(shard, end)
	if ws := f.st.WAL(shard); ws != nil {
		if err := ws.AppendPosition(end); err != nil && err != wal.ErrClosed {
			f.logf("repl: logging position for shard %d: %v", shard, err)
		}
	}
	f.mu.Lock()
	if end.Gen > f.leaderEnd[shard].Gen ||
		(end.Gen == f.leaderEnd[shard].Gen && end.Seq > f.leaderEnd[shard].Seq) {
		f.leaderEnd[shard] = end
	}
	f.mu.Unlock()
	return nil
}

// applyRecord applies one streamed WAL payload through the mutation path.
// The index copies what it is given, so the reused message buffer can be
// passed straight in.
func (f *Follower) applyRecord(payload []byte) error {
	op, key, val, err := wal.DecodeRecord(payload)
	if err != nil {
		return err
	}
	switch op {
	case wal.RecordSet:
		f.st.Set(key, val)
	case wal.RecordDel:
		f.st.Del(key)
	case wal.RecordPos:
		// A position marker from the leader's own follower past (a
		// promoted leader): a record ordinal, not a mutation.
	}
	return nil
}

func (f *Follower) snapBegin(body []byte, epoch uint64) error {
	e, shard, pos, err := decodePosMsg(body)
	if err != nil {
		return fmt.Errorf("%w: bad snapshot begin", errProto)
	}
	if e != epoch {
		return fmt.Errorf("%w: snapshot from epoch %d on an epoch-%d stream", errProto, e, epoch)
	}
	if shard >= f.st.NumShards() {
		return fmt.Errorf("%w: snapshot for shard %d", errProto, shard)
	}
	f.mu.Lock()
	if st := f.snap[shard]; st != nil && st.pos == pos {
		// The leader resumed our half-finished snapshot (it announced the
		// same position we reported): keep the cursor, chunks continue
		// from where the previous connection died.
	} else {
		f.snap[shard] = &snapState{pos: pos}
	}
	f.mu.Unlock()
	return nil
}

// reconcileLocal deletes the shard's local keys in [st.cursor, hi) that
// are absent from present (the snapshot pairs covering that range, key-
// ordered) — they were removed in leader history this follower never saw.
// A nil hi means "to the end of the shard". Keys are collected in bounded
// batches and deleted between scans, so memory stays O(batch) however
// large the shard or the locally-extra range is.
func (f *Follower) reconcileLocal(shard int, st *snapState, hi []byte, present [][]byte) {
	const reconcileBatch = 4096
	j := 0
	start := st.cursor
	for {
		doomed := make([][]byte, 0, 64)
		var last []byte
		more := false
		n := 0
		f.st.ShardScan(shard, start, func(k, _ []byte) bool {
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return false
			}
			if n++; n > reconcileBatch {
				more = true
				return false
			}
			last = append(last[:0], k...)
			for j < len(present) && bytes.Compare(present[j], k) < 0 {
				j++
			}
			if j >= len(present) || !bytes.Equal(present[j], k) {
				doomed = append(doomed, append([]byte(nil), k...))
			}
			return true
		})
		for _, k := range doomed {
			f.st.Del(k)
		}
		if !more {
			return
		}
		start = append(last, 0) // byte-successor: resume strictly after last
	}
}

func (f *Follower) snapChunk(body []byte) error {
	// Decode the chunk's pairs (they may alias the message buffer, so they
	// are consumed within this call), then reconcile the local key range
	// they cover, then apply them.
	shard, keys, vals, err := decodeSnapChunk(body)
	if err != nil {
		return err
	}
	f.mu.Lock()
	st := f.snap[shard]
	f.mu.Unlock()
	if st == nil {
		return fmt.Errorf("%w: snapshot chunk without begin", errProto)
	}
	if len(keys) == 0 {
		return nil
	}
	hi := append(append([]byte(nil), keys[len(keys)-1]...), 0)
	f.reconcileLocal(shard, st, hi, keys)
	for i, key := range keys {
		f.st.Set(key, vals[i])
	}
	st.cursor = hi
	return nil
}

func (f *Follower) snapEnd(body []byte) error {
	if len(body) != 2 {
		return fmt.Errorf("%w: bad snapshot end", errProto)
	}
	shard := int(binary.LittleEndian.Uint16(body[:2]))
	f.mu.Lock()
	st := f.snap[shard]
	delete(f.snap, shard)
	f.mu.Unlock()
	if st == nil {
		return fmt.Errorf("%w: snapshot end without begin", errProto)
	}
	// Everything local past the last chunk was deleted in leader history.
	f.reconcileLocal(shard, st, nil, nil)
	// The position may move BACKWARD here relative to a diverged past:
	// that is the correction, not a bug.
	pos := st.pos
	f.setApplied(shard, pos)
	if ws := f.st.WAL(shard); ws != nil {
		if err := ws.AppendPosition(pos); err != nil && err != wal.ErrClosed {
			f.logf("repl: logging position for shard %d: %v", shard, err)
		}
	}
	f.snapshotsApplied.Add(1)
	// During a lineage resync, adopting the leader's (epoch, history) waits
	// for the LAST shard's correction: until then our positions are a mix
	// of two lineages and the old history — which forces the resync to
	// repeat after a crash — is the safe one to re-handshake with.
	f.mu.Lock()
	if rt := f.resync; rt != nil {
		delete(rt.pending, shard)
		if len(rt.pending) == 0 {
			f.resync = nil
			f.mu.Unlock()
			if err := f.st.AdoptHistory(rt.epoch, rt.hist); err != nil {
				f.logf("repl: persisting adopted epoch %d: %v", rt.epoch, err)
			} else {
				f.logf("repl: adopted leader lineage at epoch %d", rt.epoch)
				f.markAdopted()
			}
			return nil
		}
	}
	f.mu.Unlock()
	return nil
}

// markAdopted records that the store runs the leader's lineage (see
// Follower.adopted).
func (f *Follower) markAdopted() { f.adoptOnce.Do(func() { close(f.adopted) }) }

// maybeAck reports applied positions upstream, rate-limited to
// AckInterval (or immediately when force).
func (f *Follower) maybeAck(w *bufio.Writer, force bool) error {
	f.mu.Lock()
	due := force || time.Since(f.lastAck) >= f.o.AckInterval
	if due {
		f.lastAck = time.Now()
	}
	positions := f.applied
	epoch := f.connEpoch
	if due {
		positions = append([]wal.Position(nil), f.applied...)
	}
	f.mu.Unlock()
	if !due {
		return nil
	}
	var body []byte
	for i, p := range positions {
		if err := writeMsg(w, msgAck, appendPosMsg(body[:0], epoch, i, p)); err != nil {
			return err
		}
	}
	return nil
}

func (f *Follower) appliedPos(shard int) wal.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied[shard]
}

func (f *Follower) setApplied(shard int, p wal.Position) {
	f.mu.Lock()
	f.applied[shard] = p
	f.mu.Unlock()
}

func (f *Follower) appliedSnapshot() []wal.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wal.Position(nil), f.applied...)
}

// Applied returns the per-shard leader positions this follower has
// applied up to.
func (f *Follower) Applied() []wal.Position { return f.appliedSnapshot() }

// LeaderEnd returns the leader's per-shard end positions as last heard
// (via heartbeats and batch bounds).
func (f *Follower) LeaderEnd() []wal.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wal.Position(nil), f.leaderEnd...)
}

// Lag returns the total records between the leader's last-known end and
// the applied positions. known is false when any shard's generations
// differ (the distance crosses a rotation and cannot be counted from
// positions alone) or the leader's end is not known yet.
func (f *Follower) Lag() (records int64, known bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	known = true
	for i, end := range f.leaderEnd {
		ap := f.applied[i]
		if end.Gen != ap.Gen {
			known = false
			continue
		}
		if end.Seq > ap.Seq {
			records += int64(end.Seq - ap.Seq)
		}
	}
	return records, known
}

// RecordsApplied returns the count of leader WAL records applied since
// Start; SnapshotsApplied how many shard snapshot catch-ups ran.
func (f *Follower) RecordsApplied() int64   { return f.recordsApplied.Load() }
func (f *Follower) SnapshotsApplied() int64 { return f.snapshotsApplied.Load() }

// Connected reports whether a stream to the leader is currently live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// EverConnected reports whether any handshake has ever succeeded — the
// gate both for -connect-timeout (a follower that never reached its
// leader should fail fast, not serve an empty store) and for
// auto-promotion (a node that never saw the leader has no business
// declaring it dead).
func (f *Follower) EverConnected() bool { return f.everConnected.Load() }

// ObservedEpoch returns the highest leader epoch this follower has seen.
func (f *Follower) ObservedEpoch() uint64 { return f.observedEpoch.Load() }

// CatchingUp returns the shards with a snapshot catch-up in progress —
// their reads pass through mixed states until the merge completes. After
// Promote or Close it reports the shards whose merge was abandoned
// half-finished (they may retain keys the leader had deleted).
func (f *Follower) CatchingUp() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.snap))
	for sh := range f.snap {
		out = append(out, sh)
	}
	sort.Ints(out)
	return out
}

// FillStat adds follower fields to an OpStat response.
func (f *Follower) FillStat(st *netkv.Stat) {
	st.Epoch = f.st.Epoch()
	st.FencedBy = f.st.FencedBy()
	st.LeaderEpoch = f.observedEpoch.Load()
	if f.promoted.Load() {
		st.Role = "standalone (promoted)"
		return
	}
	st.Role = "follower"
	st.Leader = f.o.Leader
	st.Applied = f.Applied()
	st.LeaderEnd = f.LeaderEnd()
	lag, known := f.Lag()
	if !known {
		lag = -1
	}
	st.LagRecords = &lag
	st.SnapshotsApplied = f.SnapshotsApplied()
	st.Connected = f.Connected()
}

// halt stops streaming and reconnecting, and waits the loop out.
func (f *Follower) halt() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	f.wg.Wait()
}

// monitor watches for leader loss when AutoPromote is armed: once any
// handshake has succeeded, HeartbeatTimeout of silence (no message, no
// successful reconnect — the leader heartbeats idle streams every 200ms,
// so silence means the leader or the path to it is gone) promotes the
// follower. The promotion bumps the epoch past every one observed, so the
// old leader is fenced on first contact with the new lineage.
func (f *Follower) monitor() {
	defer f.monWG.Done()
	interval := f.o.HeartbeatTimeout / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		if !f.everConnected.Load() {
			continue
		}
		if time.Since(time.Unix(0, f.lastContact.Load())) < f.o.HeartbeatTimeout {
			continue
		}
		st := f.Promote()
		if st != nil && f.o.OnPromote != nil {
			f.o.OnPromote(st)
		}
		return
	}
}

// Promote detaches the follower from its leader and returns the local
// store, now the caller's to write: clean promotion to a standalone
// (still durable, when opened with a Dir) store. The replication loop is
// fully stopped and the replication epoch durably bumped past every epoch
// this follower has observed before Promote returns, so the first contact
// between the old leader and the new lineage fences the old leader. The
// store keeps every applied record. Promoting while a snapshot catch-up is
// streaming abandons that merge half-finished — the affected shards
// (CatchingUp) may retain keys the leader had deleted, which Promote logs
// but does not block on: the operator promoting because the leader died
// mid-merge must not be stranded.
//
// Safe to call concurrently with itself (idempotent: one epoch bump) and
// with an armed auto-promote monitor (exactly one promotion happens).
// Returns nil after Close.
func (f *Follower) Promote() *shard.Store {
	f.lifeMu.Lock()
	defer f.lifeMu.Unlock()
	if f.closed {
		return nil
	}
	if f.promoted.Swap(true) {
		return f.st
	}
	f.halt()
	if shards := f.CatchingUp(); len(shards) > 0 {
		f.logf("repl: promoted with a snapshot catch-up in progress on shards %v: they may retain keys the leader had deleted", shards)
	}
	epoch, err := f.st.BumpEpoch(f.observedEpoch.Load())
	if err != nil {
		f.logf("repl: persisting promotion epoch %d: %v", epoch, err)
	}
	f.logf("repl: promoted at epoch %d", epoch)
	return f.st
}

// Close stops replication and closes the local store (unless Promote
// already transferred ownership). Idempotent.
func (f *Follower) Close() error {
	f.lifeMu.Lock()
	f.closed = true
	f.halt()
	promoted := f.promoted.Load()
	f.lifeMu.Unlock()
	// The monitor's Promote blocks on lifeMu; with closed set it returns
	// nil, so this wait cannot deadlock — and after it, no promotion can
	// race the store close below.
	f.monWG.Wait()
	if promoted {
		return nil
	}
	return f.st.Close()
}

// Package netkv is the networked key-value store used to reproduce Figure
// 12. The paper ports its indexes into HERD, an RDMA key-value service on
// 100 Gb/s InfiniBand, and issues requests in batches of 800. Offline and
// without RDMA hardware, this package substitutes a length-prefixed binary
// protocol over TCP (loopback in the benchmarks) with the same batching
// discipline: the network adds a per-batch cost while the per-operation
// cost stays dominated by the host-side index — the property Figure 12
// demonstrates (and, as in the paper, large values such as K10's 1 KB keys
// shift the bottleneck to the wire).
package netkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/wal"
)

// Stat is the OpStat response document. The base fields come from the
// served index; replication roles fill in their sections through
// ServerOptions.StatFill (leader: Followers; follower: Applied/LeaderEnd/
// LagRecords).
type Stat struct {
	Role     string `json:"role"`
	ReadOnly bool   `json:"read_only"`
	Keys     int64  `json:"keys"`
	Shards   int    `json:"shards,omitempty"`
	Durable  bool   `json:"durable"`
	// WALBytes is the framed length of the active WAL generations (the
	// replay cost of a crash right now); Gens the per-shard active
	// generation numbers.
	WALBytes int64    `json:"wal_bytes,omitempty"`
	Gens     []uint64 `json:"gens,omitempty"`
	// Health is each shard's degradation status (degraded flag, sticky
	// error, heal attempts) — the observable face of the degraded-mode
	// state machine.
	Health []wal.Health `json:"health,omitempty"`

	// Epoch is the served store's replication epoch; FencedBy, when
	// non-zero, is the higher epoch that fenced it (the node refuses
	// writes with StatusFenced). Together they answer "who is fenced, and
	// by whom" from either side of a failover.
	Epoch    uint64 `json:"epoch,omitempty"`
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// LeaderEpoch is the highest leader epoch a follower has observed.
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`

	// Leader fields.
	Followers []FollowerStat `json:"followers,omitempty"`

	// Follower fields.
	Leader           string         `json:"leader,omitempty"`
	Applied          []wal.Position `json:"applied,omitempty"`
	LeaderEnd        []wal.Position `json:"leader_end,omitempty"`
	LagRecords       *int64         `json:"lag_records,omitempty"` // -1: spans a rotation, uncountable
	SnapshotsApplied int64          `json:"snapshots_applied,omitempty"`
	Connected        bool           `json:"connected,omitempty"`

	// Process runtime fields: uptime, toolchain and heap/GC gauges, so a
	// bare `whkv stat` answers "how long has it been up and how is the
	// runtime doing" without a metrics scrape.
	UptimeS        int64  `json:"uptime_s,omitempty"`
	GoVersion      string `json:"go_version,omitempty"`
	Goroutines     int    `json:"goroutines,omitempty"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes,omitempty"`
	GCCycles       uint32 `json:"gc_cycles,omitempty"`
	// SlowOps counts operations traced by the slow-op tracer since start
	// (0 when tracing is disarmed).
	SlowOps uint64 `json:"slow_ops,omitempty"`
}

// FollowerStat is one subscriber's lag as the leader sees it.
type FollowerStat struct {
	Remote string `json:"remote"`
	// LagRecords counts records streamed but not yet acked (-1 when a
	// shard's sent and acked positions span a generation rotation).
	LagRecords int64 `json:"lag_records"`
	// AckAgeMS is how long ago the last ack arrived.
	AckAgeMS int64          `json:"ack_age_ms"`
	Acked    []wal.Position `json:"acked,omitempty"`
	// SnapshotsSent counts shard snapshot catch-ups streamed to this
	// follower.
	SnapshotsSent int64 `json:"snapshots_sent,omitempty"`
}

// ServerOptions configures the replication-aware pieces of a Server; the
// zero value is a plain standalone server (what Serve uses).
type ServerOptions struct {
	// ReadOnly starts the server rejecting Set and Del with
	// StatusReadOnly — follower mode. SetReadOnly flips it at promotion.
	ReadOnly bool
	// Role labels OpStat responses ("standalone" when empty); StatFill may
	// override it.
	Role string
	// Subscribe, when non-nil, takes over a connection whose batch is a
	// single OpSubscribe request, with the request key as payload; the
	// connection is the callee's to consume until it returns (the
	// replication stream). Nil servers answer StatusNotFound.
	Subscribe func(conn net.Conn, r *bufio.Reader, w *bufio.Writer, payload []byte)
	// StatFill, when non-nil, adds role-specific fields to each OpStat
	// response.
	StatFill func(*Stat)
	// ReadTimeout, when non-zero, bounds how long a connection may sit
	// between batches (and how long one batch may take to arrive): the
	// read deadline is re-armed before each batch read, so a hung or idle
	// client is dropped instead of holding a handler goroutine forever.
	ReadTimeout time.Duration
	// WriteTimeout, when non-zero, bounds each response flush: a client
	// that stops draining its socket is dropped instead of blocking the
	// handler on a full send buffer.
	WriteTimeout time.Duration
	// MaxInflight, when non-zero, caps concurrently-processing batches
	// server-wide. Excess batches wait their turn after being read —
	// backpressure degrades latency smoothly instead of letting load
	// spikes pile unbounded work onto the workers.
	MaxInflight int
	// Metrics, when non-nil, arms per-operation counters, latency
	// histograms and the slow-op tracer (NewServerMetrics). Nil costs
	// nothing: the serving path never reads the clock.
	Metrics *ServerMetrics
}

// fencer is the epoch-fencing surface a served index may expose (the
// sharded durable store does). FenceErr is the refuse-early write check —
// non-nil exactly when a higher epoch has fenced the store — kept separate
// from WriteErr so StatusFenced (definitively not applied, safe to resend
// to the new leader) never blurs into StatusDegraded (local I/O trouble).
type fencer interface {
	FenceErr() error
	Fence(epoch uint64) error
	Epoch() uint64
	FencedBy() uint64
}

// Server serves an index.Index over TCP. One executor (execute) runs
// every batch, walking it in order. Each maximal run of point operations
// (Get, Set, Del) is grouped by owning shard when the index is a sharded
// store (index.Batcher); a run that touches several shards fans out to a
// pool of per-shard workers, one worker per shard, so disjoint shards
// execute concurrently while every operation on one shard — and hence on
// one key — keeps its batch order. Every other operation runs between
// those runs, on the connection goroutine.
//
// When the index supports pinned readers (index.ReadPinner), every
// connection handler and every shard worker claims one read handle for
// its lifetime, so a served GET pays the index's per-reader registration
// once per connection instead of once per request — the paper's §2.5
// lock-free readers amortized across the wire. Range operations (SCAN,
// SCANDESC) go through the same per-connection handle when it supports
// scans (index.ScanHandle), so they ride the lock-free scan path too.
type Server struct {
	ix index.Index
	bx index.Batcher // non-nil when ix groups point operations by shard
	// cm is set with bx when ix can commit a batch's writes once per
	// shard (index.Committer).
	cm  index.Committer
	rp  index.ReadPinner
	dx  index.Durable // non-nil when ix persists (serves OpFlush)
	opt ServerOptions
	ro  atomic.Bool // mutations answer StatusReadOnly while set
	ln  net.Listener
	wg  sync.WaitGroup
	cls atomic.Bool // set by the first Close

	// wh is the index's degraded-mode surface (the sharded durable
	// store); nil when the index has none.
	wh interface{ WriteErr(key []byte) error }
	// fc is the index's epoch-fencing surface; nil when the index has no
	// replication epochs.
	fc fencer
	// sem is the MaxInflight semaphore; nil means uncapped.
	sem chan struct{}
	// mx is the armed instrument bundle (opt.Metrics); nil records
	// nothing. start feeds OpStat's uptime.
	mx    *ServerMetrics
	start time.Time

	workers  []chan func(*pinned) // one job channel per shard
	workerWG sync.WaitGroup
}

// pinned is one goroutine's pinned read handle and the optional faces of
// it the point path uses, resolved once for the goroutine's lifetime.
type pinned struct {
	h  index.ReadHandle  // nil when the index has no amortized read path
	bh index.BatchHandle // batched Gets; nil unless the index is sharded
	dw index.WriteHandle // writes without their durability wait; nil unless the index commits
}

// newPinned claims a pinned read handle for one goroutine's lifetime;
// the caller closes a non-nil h.
func (s *Server) newPinned() *pinned {
	p := &pinned{}
	if s.rp == nil {
		return p
	}
	p.h = s.rp.NewReadHandle()
	if s.bx != nil {
		p.bh, _ = p.h.(index.BatchHandle)
	}
	if s.cm != nil {
		p.dw, _ = p.h.(index.WriteHandle)
	}
	return p
}

// Serve starts a plain server on addr (e.g. "127.0.0.1:0") and returns
// it; the chosen address is available via Addr.
func Serve(addr string, ix index.Index) (*Server, error) {
	return ServeOpts(addr, ix, ServerOptions{})
}

// ServeOpts starts a server with replication-aware options: read-only
// followers, an OpSubscribe hook, and OpStat enrichment. When the options
// wire a Subscribe hook, whoever owns that hook (the replication source)
// must be closed before the server: Close waits for connection handlers,
// and a subscriber's handler only returns when its stream dies.
func ServeOpts(addr string, ix index.Index, opt ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ix: ix, ln: ln, opt: opt, mx: opt.Metrics, start: time.Now()}
	s.ro.Store(opt.ReadOnly)
	if opt.MaxInflight > 0 {
		s.sem = make(chan struct{}, opt.MaxInflight)
	}
	s.rp, _ = ix.(index.ReadPinner)
	s.wh, _ = ix.(interface{ WriteErr(key []byte) error })
	s.fc, _ = ix.(fencer)
	if dx, ok := ix.(index.Durable); ok {
		s.dx = dx
		// A store can implement the lifecycle yet be volatile (the sharded
		// store created without a directory): its Flush is a vacuous no-op,
		// and clients deserve StatusNotFound, not a fake durability ack.
		if v, ok := ix.(interface{ Durable() bool }); ok && !v.Durable() {
			s.dx = nil
		}
	}
	if bx, ok := ix.(index.Batcher); ok {
		s.bx = bx
		s.cm, _ = ix.(index.Committer)
		s.workers = make([]chan func(*pinned), bx.NumShards())
		for i := range s.workers {
			ch := make(chan func(*pinned), 16)
			s.workers[i] = ch
			s.workerWG.Add(1)
			go func() {
				defer s.workerWG.Done()
				p := s.newPinned() // the worker's own pinned reader
				if p.h != nil {
					defer p.h.Close()
				}
				for job := range ch {
					// A panicking job must not take the worker (and with it
					// the whole shard) down; its batch's connection reports
					// StatusErr and the pool keeps serving.
					func() {
						defer func() { recover() }()
						job(p)
					}()
				}
			}()
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReadOnly flips mutation rejection at runtime — promotion of a
// follower to a writable standalone store flips it off.
func (s *Server) SetReadOnly(ro bool) { s.ro.Store(ro) }

// Close stops the listener, waits for connection handlers to finish
// their in-flight batches, and drains the shard worker pool. Idempotent:
// a second Close returns nil without touching the already-drained pool.
// The server does not own the index; closing a durable index is its
// creator's job, after Close returns.
func (s *Server) Close() error {
	if s.cls.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.wg.Wait()
	for _, ch := range s.workers {
		close(ch)
	}
	s.workerWG.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	// A panic while serving this connection (a corrupt request tripping an
	// index edge case, a bug in a handler) drops the connection, never the
	// process: every other connection keeps serving.
	defer func() { recover() }()
	if s.mx != nil {
		s.mx.conns.Inc()
		defer s.mx.conns.Dec()
	}
	r := bufio.NewReaderSize(conn, bufSize)
	w := bufio.NewWriterSize(conn, bufSize)
	p := s.newPinned() // one pinned reader per connection
	if p.h != nil {
		defer p.h.Close()
	}
	b := s.newBatch(p)
	for {
		if s.opt.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opt.ReadTimeout))
		}
		// The requests are views into r's buffer, valid until the next
		// read on r: this batch's reply is written before that.
		reqs, err := readRequests(r, b.reqs)
		if err != nil {
			return // EOF, deadline or protocol error: drop the connection
		}
		if len(reqs) == 1 && reqs[0].Op == OpSubscribe {
			if s.opt.Subscribe == nil {
				s.mx.record(OpSubscribe, StatusNotFound, nil, 0)
				// Not a replication leader: a regular one-response frame
				// says so and the connection stays usable.
				if writeFrame(w, 1, append(newFrame(b.reply), StatusNotFound)) != nil {
					return
				}
				b.reqs = keep(reqs)
				continue
			}
			// The connection now belongs to the replication stream: long
			// idle stretches are its normal state, so the per-batch
			// deadlines must not apply.
			conn.SetDeadline(time.Time{})
			s.mx.record(OpSubscribe, StatusOK, nil, 0)
			if s.mx != nil {
				s.mx.subscribers.Inc()
			}
			// The stream reads r, which overwrites the request's bytes, so
			// the hook gets its own copy of the payload.
			s.opt.Subscribe(conn, r, w, bytes.Clone(reqs[0].Key))
			if s.mx != nil {
				s.mx.subscribers.Dec()
			}
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// The cap is full: this batch waits its turn. Count the wait
				// so operators can see backpressure engaging before latency
				// SLOs notice it.
				if s.mx != nil {
					s.mx.bpWaits.Inc()
					s.mx.bpWaiting.Inc()
				}
				s.sem <- struct{}{}
				if s.mx != nil {
					s.mx.bpWaiting.Dec()
				}
			}
		}
		var t0 time.Time
		if s.mx != nil {
			t0 = time.Now()
			s.mx.inflight.Inc()
		}
		frame, perr := b.execute(reqs)
		// Count the batch before any byte of its reply leaves: a client
		// that scrapes right after its reply must already see it.
		if s.mx != nil {
			s.mx.inflight.Dec()
			s.mx.batches.Inc()
			s.mx.batchOps.Add(uint64(len(reqs)))
			s.mx.batchSeconds.Observe(time.Since(t0))
		}
		if perr == nil {
			if s.opt.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
			}
			perr = writeFrame(w, len(reqs), frame)
		}
		if s.sem != nil {
			<-s.sem
		}
		if perr != nil || s.cls.Load() {
			return
		}
		b.reqs, b.reply = keep(reqs), keep(frame)
	}
}

// batch is one connection's execution state, created with the connection
// and reused by every batch it sends, so that a warm point batch
// allocates nothing. Between batches each buffer is readied with keep.
type batch struct {
	s *Server
	p *pinned // the connection's pinned reader

	reqs  []Request // the decoded requests
	reply []byte    // the reply frame, built on newFrame
	// tokens[sh] is shard sh's largest deferred-write token over the
	// batch; nil when writes wait for themselves.
	tokens []uint64

	// The point run being executed, its results by position, and its
	// per-shard groups (one group on an unsharded index).
	run     []Request
	results []result
	groups  []group
	wg      sync.WaitGroup // the run's groups out on shard workers
}

// group is one shard's part of a point run.
type group struct {
	idx []int // positions in the run, in batch order
	// A pending stretch of consecutive Gets for one GetBatch: their keys
	// and their positions in the run.
	keys [][]byte
	at   []int
	// job runs this group on its shard's worker.
	job func(*pinned)
}

func (s *Server) newBatch(p *pinned) *batch {
	b := &batch{s: s, p: p, groups: make([]group, 1)}
	if s.bx != nil {
		b.groups = make([]group, s.bx.NumShards())
		for sh := range b.groups {
			b.groups[sh].job = func(p *pinned) { b.runOnWorker(sh, p) }
		}
		if p.dw != nil {
			b.tokens = make([]uint64, len(b.groups))
		}
	}
	return b
}

// execute runs one batch and returns its reply frame. It is the only place
// that decides how a batch runs: one walk in batch order, where each
// maximal run of point operations goes to runPoints and every other
// operation runs inline through execOther. An unknown opcode returns an
// error, and the connection drops without a reply.
//
// When the connection's handle is an index.WriteHandle and the index an
// index.Committer, Sets and Dels skip their durability wait, each shard's
// largest token is kept over the whole batch, and one Commit runs before
// the reply is built: an acknowledged write is as durable as with a
// per-write wait, at one fsync per touched shard per batch. The commit
// runs off the shard workers, so other connections' groups keep applying
// and their commits can share its fsync. Per-op latencies of deferred
// writes exclude the commit wait (wal_commit_wait_seconds measures it).
func (b *batch) execute(reqs []Request) ([]byte, error) {
	clear(b.tokens)
	frame := newFrame(b.reply)
	for i := 0; i < len(reqs); {
		if !isPoint(reqs[i].Op) {
			var err error
			if frame, err = b.s.execOther(&reqs[i], b.p.h, frame); err != nil {
				return nil, err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(reqs) && isPoint(reqs[j].Op) {
			j++
		}
		frame = b.runPoints(reqs[i:j], frame)
		i = j
	}
	if b.tokens != nil {
		b.s.cm.Commit(b.tokens)
	}
	return frame, nil
}

func isPoint(op byte) bool { return op == OpGet || op == OpSet || op == OpDel }

// result is one point operation's outcome, held positionally until its
// run's replies are serialized in request order.
type result struct {
	status byte
	val    []byte // Get only; nil means no value section
	hasVal bool
}

// runPoints executes a run of point operations and appends their replies
// to frame in request order. On a sharded index the run is grouped by
// owning shard, otherwise it is one group. A single active group runs
// inline on the connection's handle, so concurrent connections never
// serialize behind one worker; several go to their shards' workers.
func (b *batch) runPoints(reqs []Request, frame []byte) []byte {
	s := b.s
	b.run = reqs
	b.results = slices.Grow(b.results, len(reqs))[:len(reqs)]
	active := 0
	for i := range reqs {
		g := 0
		if s.bx != nil {
			g = s.bx.ShardOf(reqs[i].Key)
		}
		if len(b.groups[g].idx) == 0 {
			active++
		}
		b.groups[g].idx = append(b.groups[g].idx, i)
	}
	if active == 1 {
		for sh := range b.groups {
			if len(b.groups[sh].idx) > 0 {
				b.runGroup(sh, b.p)
			}
		}
	} else {
		for sh := range b.groups {
			if len(b.groups[sh].idx) > 0 {
				b.wg.Add(1)
				s.workers[sh] <- b.groups[sh].job
			}
		}
		b.wg.Wait()
	}
	for _, rs := range b.results {
		frame = append(frame, rs.status)
		if rs.hasVal {
			frame = binary.LittleEndian.AppendUint32(frame, uint32(len(rs.val)))
			frame = append(frame, rs.val...)
		}
	}
	b.results = keep(b.results)
	for sh := range b.groups {
		b.groups[sh].idx = keep(b.groups[sh].idx)
	}
	return frame
}

// runOnWorker runs group sh on its shard's worker, through the worker's
// handle p. A panicking group answers StatusErr (with an empty value
// section where the wire format demands one, so the frame stays
// decodable) instead of poisoning the worker.
func (b *batch) runOnWorker(sh int, p *pinned) {
	defer b.wg.Done()
	defer func() {
		if recover() != nil {
			g := &b.groups[sh]
			g.keys, g.at = keep(g.keys), keep(g.at)
			for _, i := range g.idx {
				rq := &b.run[i]
				b.results[i] = result{status: StatusErr, hasVal: rq.Op == OpGet}
				// No honest duration for a panicked group: count the
				// outcome, skip the histogram.
				b.s.mx.record(rq.Op, StatusErr, rq.Key, 0)
			}
		}
	}()
	b.runGroup(sh, p)
}

// runGroup executes group sh of the current run through handle p. On a
// sharded index, consecutive Gets go through one batched lookup
// (Wormhole's memory-parallel pipeline), never across a Set or Del, so
// each key's operations keep their program order.
func (b *batch) runGroup(sh int, p *pinned) {
	s := b.s
	g := &b.groups[sh]
	var dw index.WriteHandle
	if b.tokens != nil {
		dw = p.dw
	}
	for _, i := range g.idx {
		rq := &b.run[i]
		if p.bh != nil && rq.Op == OpGet {
			g.keys = append(g.keys, rq.Key)
			g.at = append(g.at, i)
			continue
		}
		b.getBatch(g, p.bh)
		var t0 time.Time
		if s.mx != nil {
			t0 = time.Now()
		}
		st, v, hasVal, t := s.execPoint(rq, p.h, dw)
		if s.mx != nil {
			s.mx.record(rq.Op, st, rq.Key, time.Since(t0))
		}
		b.results[i] = result{status: st, val: v, hasVal: hasVal}
		if t != 0 { // only a deferred write has a token
			b.tokens[sh] = max(b.tokens[sh], t)
		}
	}
	b.getBatch(g, p.bh)
}

// getBatch answers g's pending Gets with one GetBatch on bh.
func (b *batch) getBatch(g *group, bh index.BatchHandle) {
	if len(g.at) == 0 {
		return
	}
	mx := b.s.mx
	var t0 time.Time
	if mx != nil {
		t0 = time.Now()
	}
	vals, found := bh.GetBatch(g.keys)
	// The stretch executes as one memory-parallel pipeline, so per-
	// operation latency is its wall time divided evenly — the fair per-op
	// cost of a batched lookup.
	var per time.Duration
	if mx != nil {
		per = time.Since(t0) / time.Duration(len(g.at))
	}
	for j, i := range g.at {
		st, v := StatusNotFound, []byte(nil)
		if found[j] {
			st, v = StatusOK, vals[j]
		}
		b.results[i] = result{status: st, val: v, hasVal: true}
		mx.record(OpGet, st, g.keys[j], per)
	}
	g.keys, g.at = keep(g.keys), keep(g.at)
}

// execPoint executes one point operation against the index, returning the
// response status plus, for operations whose response carries a value
// section (Get), the value. Gets go through the calling goroutine's
// pinned read handle when one exists. With a non-nil dw, writes go
// through it without their durability wait and token is what the caller
// must Commit before replying; otherwise the write has waited and token
// is 0.
func (s *Server) execPoint(rq *Request, h index.ReadHandle, dw index.WriteHandle) (status byte, val []byte, hasVal bool, token uint64) {
	if rq.Op == OpGet {
		var v []byte
		var ok bool
		if h != nil {
			v, ok = h.Get(rq.Key)
		} else {
			v, ok = s.ix.Get(rq.Key)
		}
		if !ok {
			return StatusNotFound, nil, true, 0
		}
		return StatusOK, v, true, 0
	}
	// OpSet or OpDel; runPoints admits nothing else here. The fence check
	// runs first, BEFORE the index mutates: a stale leader must refuse
	// every write once it knows a higher epoch exists, and the refusal
	// must prove non-application so clients can resend to the new leader.
	if s.fc != nil && s.fc.FenceErr() != nil {
		return StatusFenced, nil, false, 0
	}
	if s.ro.Load() {
		return StatusReadOnly, nil, false, 0
	}
	// The degraded check runs BEFORE the index mutates: a write the WAL
	// cannot log must not land in memory either, or reads would serve
	// state that a restart loses.
	if s.wh != nil && s.wh.WriteErr(rq.Key) != nil {
		return StatusDegraded, nil, false, 0
	}
	if rq.Op == OpSet {
		if dw != nil {
			return StatusOK, nil, false, dw.SetNoWait(rq.Key, rq.Val)
		}
		s.ix.Set(rq.Key, rq.Val)
		return StatusOK, nil, false, 0
	}
	var found bool
	if dw != nil {
		found, token = dw.DelNoWait(rq.Key)
	} else {
		found = s.ix.Del(rq.Key)
	}
	if found {
		return StatusOK, nil, false, token
	}
	return StatusNotFound, nil, false, 0
}

// stat assembles the OpStat document from the served index plus the
// options' role-specific filler.
func (s *Server) stat() *Stat {
	st := &Stat{
		Role:     s.opt.Role,
		ReadOnly: s.ro.Load(),
		Keys:     s.ix.Count(),
		Durable:  s.dx != nil,
	}
	if st.Role == "" {
		st.Role = "standalone"
	}
	if s.bx != nil {
		st.Shards = s.bx.NumShards()
	}
	if wb, ok := s.ix.(interface{ WALBytes() int64 }); ok {
		st.WALBytes = wb.WALBytes()
	}
	if g, ok := s.ix.(interface{ Gens() []uint64 }); ok {
		st.Gens = g.Gens()
	}
	if hl, ok := s.ix.(interface{ Health() []wal.Health }); ok {
		st.Health = hl.Health()
	}
	if s.fc != nil {
		st.Epoch = s.fc.Epoch()
		st.FencedBy = s.fc.FencedBy()
	}
	st.UptimeS = int64(time.Since(s.start).Seconds())
	st.GoVersion = runtime.Version()
	st.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // stat is a rare, operator-driven request
	st.HeapAllocBytes = ms.HeapAlloc
	st.HeapSysBytes = ms.HeapSys
	st.GCCycles = ms.NumGC
	if s.mx != nil && s.mx.Slow != nil {
		st.SlowOps = s.mx.Slow.Total()
	}
	if s.opt.StatFill != nil {
		s.opt.StatFill(st)
	}
	return st
}

// scanner resolves the function serving a range operation: the calling
// goroutine's pinned read handle when it supports scans (the lock-free
// scan path amortized per connection, like Gets), otherwise the index
// itself. nil means the index has no scan in that direction.
func (s *Server) scanner(h index.ReadHandle, desc bool) func([]byte, func(k, v []byte) bool) {
	if sh, ok := h.(index.ScanHandle); ok {
		if desc {
			return sh.ScanDesc
		}
		return sh.Scan
	}
	if desc {
		if od, ok := s.ix.(index.OrderedDesc); ok {
			return od.ScanDesc
		}
		return nil
	}
	if ord, ok := s.ix.(index.Ordered); ok {
		return ord.Scan
	}
	return nil
}

// execOther executes one operation that is not a point operation on the
// connection goroutine and appends its reply to body.
func (s *Server) execOther(rq *Request, h index.ReadHandle, body []byte) ([]byte, error) {
	// Every case writes its status byte first, so body[stAt] after the
	// switch is this operation's outcome — one timing site covers all
	// opcodes.
	stAt := len(body)
	var t0 time.Time
	if s.mx != nil {
		t0 = time.Now()
	}
	switch rq.Op {
	case OpFlush:
		// Earlier operations in this batch are already applied and logged
		// (deferred writes too, on a durable index), so the barrier covers
		// them.
		switch {
		case s.dx == nil:
			body = append(body, StatusNotFound)
		case s.dx.Flush() != nil:
			body = append(body, StatusErr)
		default:
			body = append(body, StatusOK)
		}
	case OpFence:
		switch {
		case s.fc == nil || len(rq.Key) != 8:
			body = append(body, StatusNotFound)
		case s.fc.Fence(binary.LittleEndian.Uint64(rq.Key)) != nil:
			// The in-memory fence stands even when persisting it failed;
			// report the failure so the caller knows a restart could forget
			// it.
			body = append(body, StatusErr)
		default:
			body = append(body, StatusOK)
		}
	case OpStat:
		doc, err := json.Marshal(s.stat())
		if err != nil {
			body = append(body, StatusErr)
			body = binary.LittleEndian.AppendUint32(body, 0)
			break
		}
		body = append(body, StatusOK)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(doc)))
		body = append(body, doc...)
	case OpScan, OpScanDesc:
		scan := s.scanner(h, rq.Op == OpScanDesc)
		if scan == nil {
			body = append(body, StatusNotFound)
			body = binary.LittleEndian.AppendUint16(body, 0)
			break
		}
		body = append(body, StatusOK)
		lenAt := len(body)
		body = binary.LittleEndian.AppendUint16(body, 0)
		limit := min(rq.Limit, maxScanPairs)
		if limit == 0 {
			break
		}
		var n uint32
		start := rq.Key
		if len(start) == 0 {
			// The wire cannot carry nil: an empty key means "from the
			// smallest key" ascending, "from the largest" descending.
			start = nil
		}
		scan(start, func(k, v []byte) bool {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(k)))
			body = append(body, k...)
			body = binary.LittleEndian.AppendUint32(body, uint32(len(v)))
			body = append(body, v...)
			n++
			return n < limit
		})
		binary.LittleEndian.PutUint16(body[lenAt:], uint16(n))
	default:
		return nil, fmt.Errorf("netkv: bad opcode %d", rq.Op)
	}
	if s.mx != nil {
		s.mx.record(rq.Op, body[stAt], rq.Key, time.Since(t0))
	}
	return body, nil
}

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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/wal"
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

// Server serves an index.Index over TCP. When the index is a sharded
// store (index.Batcher), each request batch's point operations are
// dispatched to a pool of per-shard workers: one worker owns each shard,
// so disjoint shards execute a batch concurrently while every operation
// on one shard — and hence on one key — keeps its batch order.
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
	bx index.Batcher // non-nil when ix supports shard dispatch
	// cm is set with bx when ix can commit a dispatched batch's writes
	// once per shard (index.Committer).
	cm  index.Committer
	rp  index.ReadPinner
	dx  index.Durable // non-nil when ix persists (serves OpFlush)
	opt ServerOptions
	ro  atomic.Bool // mutations answer StatusReadOnly while set
	ln  net.Listener
	mu  sync.Mutex
	wg  sync.WaitGroup
	cls bool

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

	workers  []chan func(index.ReadHandle) // one job channel per shard
	workerWG sync.WaitGroup
}

// newReadHandle returns a pinned read handle for one goroutine's
// lifetime, or nil when the index has no amortized read path.
func (s *Server) newReadHandle() index.ReadHandle {
	if s.rp == nil {
		return nil
	}
	return s.rp.NewReadHandle()
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
	if rp, ok := ix.(index.ReadPinner); ok {
		s.rp = rp
	}
	if wh, ok := ix.(interface{ WriteErr(key []byte) error }); ok {
		s.wh = wh
	}
	if fc, ok := ix.(fencer); ok {
		s.fc = fc
	}
	if dx, ok := ix.(index.Durable); ok {
		s.dx = dx
		// A store can implement the lifecycle yet be volatile (the sharded
		// store created without a directory): its Flush is a vacuous no-op,
		// and clients deserve StatusNotFound, not a fake durability ack.
		if v, ok := ix.(interface{ Durable() bool }); ok && !v.Durable() {
			s.dx = nil
		}
	}
	if bx, ok := ix.(index.Batcher); ok && bx.NumShards() > 1 {
		s.bx = bx
		s.cm, _ = ix.(index.Committer)
		s.workers = make([]chan func(index.ReadHandle), bx.NumShards())
		for i := range s.workers {
			ch := make(chan func(index.ReadHandle), 16)
			s.workers[i] = ch
			s.workerWG.Add(1)
			go func() {
				defer s.workerWG.Done()
				h := s.newReadHandle() // the worker's own pinned reader
				if h != nil {
					defer h.Close()
				}
				for job := range ch {
					// A panicking job must not take the worker (and with it
					// the whole shard) down; its batch's connection reports
					// StatusErr and the pool keeps serving.
					func() {
						defer func() { recover() }()
						job(h)
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
	s.mu.Lock()
	if s.cls {
		s.mu.Unlock()
		return nil
	}
	s.cls = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	for _, ch := range s.workers {
		close(ch)
	}
	s.workerWG.Wait()
	return err
}

func (s *Server) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cls
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
	r := bufio.NewReaderSize(conn, 1<<20)
	w := bufio.NewWriterSize(conn, 1<<20)
	h := s.newReadHandle() // one pinned reader per connection
	if h != nil {
		defer h.Close()
	}
	scratch := make([]Request, 0, DefaultBatch)
	for {
		if s.opt.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opt.ReadTimeout))
		}
		reqs, err := readRequests(r, scratch[:0])
		if err != nil {
			return // EOF, deadline or protocol error: drop the connection
		}
		if len(reqs) == 1 && reqs[0].Op == OpSubscribe {
			if s.opt.Subscribe == nil {
				s.mx.record(OpSubscribe, StatusNotFound, nil, 0)
				// Not a replication leader: a regular one-response frame
				// says so and the connection stays usable.
				if writeReply(w, 1, []byte{StatusNotFound}) != nil {
					return
				}
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
			s.opt.Subscribe(conn, r, w, reqs[0].Key)
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
		var body []byte
		var perr error
		if s.dispatchable(reqs) {
			body = s.processSharded(reqs, h)
		} else {
			body, perr = s.process(reqs, h)
		}
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
			perr = writeReply(w, len(reqs), body)
		}
		if s.sem != nil {
			<-s.sem
		}
		if perr != nil {
			return
		}
		if s.closed() {
			return
		}
		scratch = reqs
	}
}

// dispatchable reports whether a batch can go through the per-shard
// worker pool: a sharded index, more than one request to amortize the
// handoff, and point operations only — a Scan crosses shard boundaries,
// so any batch containing one falls back to sequential processing.
func (s *Server) dispatchable(reqs []Request) bool {
	if s.bx == nil || len(reqs) < 2 {
		return false
	}
	for _, rq := range reqs {
		switch rq.Op {
		case OpGet, OpSet, OpDel:
		default:
			return false
		}
	}
	return true
}

// execPoint executes one point operation against the index, returning the
// response status plus, for operations whose response carries a value
// section (Get), the value. Both processing paths share it so the wire
// semantics cannot diverge. Gets go through the calling goroutine's
// pinned read handle when one exists. Set copies its buffers: the request
// slices are reused per batch. With a non-nil dw, writes go through it
// without their durability wait and token is what the caller must
// Commit before replying; otherwise the write has waited and token is 0.
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
	// OpSet or OpDel; dispatchable/process admit nothing else here. The
	// fence check runs first, BEFORE the index mutates: a stale leader
	// must refuse every write once it knows a higher epoch exists, and the
	// refusal must prove non-application so clients can resend to the new
	// leader.
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
		k := append([]byte{}, rq.Key...)
		v := append([]byte{}, rq.Val...)
		if dw != nil {
			return StatusOK, nil, false, dw.SetNoWait(k, v)
		}
		s.ix.Set(k, v)
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

// processSharded executes one batch through the per-shard worker pool.
// Requests are grouped by owning shard in batch order; each group runs on
// its shard's worker, results land in a positional slice, and responses
// are serialized in the original request order once every group finishes.
// A batch that lands entirely on one shard (e.g. a skewed keyspace under
// a uniform partitioner) runs inline on the connection handler instead,
// so concurrent connections never serialize behind a single worker.
// connHandle is the connection goroutine's pinned reader, used only on
// that inline path; dispatched groups use their worker's own handle.
//
// When the handles can write without waiting (index.WriteHandle) and the
// index is an index.Committer, a group's Sets and Dels skip their
// durability wait and the group records its shard's largest token. The
// connection goroutine then commits once per touched shard, after every
// group has run and before the reply is built, so an acknowledged write
// is as durable as before — at one fsync per shard per batch instead of
// one per write. The commit runs off the shard workers, which meanwhile
// apply other connections' groups, whose commits can then share the same
// group-committed fsync. Per-op latencies of deferred writes exclude the
// commit wait (wal_commit_wait_seconds measures it).
func (s *Server) processSharded(reqs []Request, connHandle index.ReadHandle) []byte {
	type result struct {
		status byte
		val    []byte // Get only; nil means no value section
		hasVal bool
	}
	groups := make([][]int, s.bx.NumShards())
	active := 0
	for i, rq := range reqs {
		g := s.bx.ShardOf(rq.Key)
		if len(groups[g]) == 0 {
			active++
		}
		groups[g] = append(groups[g], i)
	}
	results := make([]result, len(reqs))
	// tokens[sh] is shard sh's largest deferred-write token; nil when
	// writes wait for themselves.
	var tokens []uint64
	if _, ok := connHandle.(index.WriteHandle); ok && s.cm != nil {
		tokens = make([]uint64, len(groups))
	}
	// Within a group, maximal runs of consecutive Gets go through the
	// handle's batched lookup (Wormhole's memory-parallel pipeline) in one
	// call. Runs never extend across a Set or Del, so each key's
	// operations keep their in-batch program order.
	runGroup := func(sh int, g []int, h index.ReadHandle) {
		bh, _ := h.(index.BatchHandle)
		var dw index.WriteHandle
		if tokens != nil {
			dw, _ = h.(index.WriteHandle)
		}
		var tok uint64
		var keys [][]byte
		var run []int
		flush := func() {
			if len(run) == 0 {
				return
			}
			var t0 time.Time
			if s.mx != nil {
				t0 = time.Now()
			}
			vals, found := bh.GetBatch(keys)
			// The run executes as one memory-parallel pipeline, so
			// per-operation latency is the run's wall time divided evenly —
			// the fair per-op cost of a batched lookup.
			var per time.Duration
			if s.mx != nil {
				per = time.Since(t0) / time.Duration(len(run))
			}
			for j, i := range run {
				if found[j] {
					results[i] = result{status: StatusOK, val: vals[j], hasVal: true}
					s.mx.record(OpGet, StatusOK, keys[j], per)
				} else {
					results[i] = result{status: StatusNotFound, hasVal: true}
					s.mx.record(OpGet, StatusNotFound, keys[j], per)
				}
			}
			keys, run = keys[:0], run[:0]
		}
		for _, i := range g {
			if bh != nil && reqs[i].Op == OpGet {
				keys = append(keys, reqs[i].Key)
				run = append(run, i)
				continue
			}
			flush()
			var t0 time.Time
			if s.mx != nil {
				t0 = time.Now()
			}
			st, v, hasVal, t := s.execPoint(&reqs[i], h, dw)
			if s.mx != nil {
				s.mx.record(reqs[i].Op, st, reqs[i].Key, time.Since(t0))
			}
			results[i] = result{status: st, val: v, hasVal: hasVal}
			tok = max(tok, t)
		}
		flush()
		if tokens != nil {
			tokens[sh] = tok
		}
	}
	if active == 1 {
		for sh, g := range groups {
			if len(g) > 0 {
				runGroup(sh, g, connHandle)
			}
		}
	} else {
		var wg sync.WaitGroup
		for sh, g := range groups {
			if len(g) == 0 {
				continue
			}
			wg.Add(1)
			g := g
			s.workers[sh] <- func(h index.ReadHandle) {
				defer wg.Done()
				// A panicking group answers StatusErr (with an empty value
				// section where the wire format demands one, so the frame
				// stays decodable) instead of poisoning the worker.
				defer func() {
					if recover() != nil {
						for _, i := range g {
							results[i] = result{status: StatusErr, hasVal: reqs[i].Op == OpGet}
							// No honest duration for a panicked group: count
							// the outcome, skip the histogram.
							s.mx.record(reqs[i].Op, StatusErr, reqs[i].Key, 0)
						}
					}
				}()
				runGroup(sh, g, h)
			}
		}
		wg.Wait()
	}
	if tokens != nil {
		s.cm.Commit(tokens)
	}
	var body []byte
	for _, rs := range results {
		body = append(body, rs.status)
		if rs.hasVal {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(rs.val)))
			body = append(body, rs.val...)
		}
	}
	return body
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
	} else if b, ok := s.ix.(index.Batcher); ok {
		st.Shards = b.NumShards()
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

// process executes one batch in order on the connection goroutine and
// returns the reply body.
func (s *Server) process(reqs []Request, h index.ReadHandle) ([]byte, error) {
	var body []byte
	for _, rq := range reqs {
		// Every case writes its status byte first, so body[stAt] after the
		// switch is this operation's outcome — one timing site covers all
		// opcodes.
		stAt := len(body)
		var t0 time.Time
		if s.mx != nil {
			t0 = time.Now()
		}
		switch rq.Op {
		case OpGet, OpSet, OpDel:
			st, v, hasVal, _ := s.execPoint(&rq, h, nil)
			body = append(body, st)
			if hasVal {
				body = binary.LittleEndian.AppendUint32(body, uint32(len(v)))
				body = append(body, v...)
			}
		case OpFlush:
			// Earlier operations in this batch are already applied (and
			// logged, on a durable index), so the barrier covers them.
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
				// The in-memory fence stands even when persisting it
				// failed; report the failure so the caller knows a restart
				// could forget it.
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
			n := 0
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
				return uint32(n) < rq.Limit
			})
			binary.LittleEndian.PutUint16(body[lenAt:], uint16(n))
		default:
			return nil, fmt.Errorf("netkv: bad opcode %d", rq.Op)
		}
		if s.mx != nil {
			s.mx.record(rq.Op, body[stAt], rq.Key, time.Since(t0))
		}
	}
	return body, nil
}

// writeReply frames body as the response to n requests and sends it.
func writeReply(w *bufio.Writer, n int, body []byte) error {
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
	out  []byte
	ops  []byte // op kind per queued request, needed to decode responses
	n    int
	err  error // sticky transport error; cleared by Redial

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
		r:    bufio.NewReaderSize(conn, 1<<20),
		w:    bufio.NewWriterSize(conn, 1<<20),
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
// empty key starts at the smallest) to the batch.
func (c *Client) QueueScan(key []byte, limit int) {
	c.queue(OpScan, key, nil, uint32(limit))
}

// QueueScanDesc appends a descending SCAN (up to limit pairs downward
// from key; an empty key starts at the largest) to the batch.
func (c *Client) QueueScanDesc(key []byte, limit int) {
	c.queue(OpScanDesc, key, nil, uint32(limit))
}

// Pending returns the number of queued operations.
func (c *Client) Pending() int { return c.n }

func (c *Client) queue(op byte, key, val []byte, limit uint32) {
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
// returned slices alias an internal buffer valid until the next Flush.
// After a transport error the client is broken until Redial: the error
// (with its underlying cause) repeats on every call rather than decaying
// into short-read noise on a half-consumed stream.
func (c *Client) Flush() ([]Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.n == 0 {
		return nil, nil
	}
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(c.out)+2))
	binary.LittleEndian.PutUint16(hdr[4:], uint16(c.n))
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	if _, err := c.w.Write(hdr[:]); err != nil {
		return nil, c.fail(err)
	}
	if _, err := c.w.Write(c.out); err != nil {
		return nil, c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.fail(err)
	}
	ops := append([]byte{}, c.ops...)
	c.out = c.out[:0]
	c.ops = c.ops[:0]
	c.n = 0
	return c.readResponses(ops)
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

func (c *Client) readResponses(ops []byte) ([]Response, error) {
	if c.Timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}
	var hdr [6]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, c.fail(err)
	}
	frameLen := binary.LittleEndian.Uint32(hdr[:4])
	got := int(binary.LittleEndian.Uint16(hdr[4:]))
	if got != len(ops) {
		return nil, c.fail(fmt.Errorf("netkv: response count %d != %d", got, len(ops)))
	}
	if frameLen < 2 || frameLen > maxFrame {
		return nil, c.fail(errors.New("netkv: bad response frame"))
	}
	body := make([]byte, frameLen-2)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, c.fail(err)
	}
	resps := make([]Response, 0, len(ops))
	for _, op := range ops {
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
	return resps, nil
}

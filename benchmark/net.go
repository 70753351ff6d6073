package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	_ "github.com/repro/wormhole/internal/adapters" // registers the "wormhole" index whkv serves by default
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/repl"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

const loadBatch = 512 // Sets per round trip while loading through a client

// netInst is a netkv server on loopback in this process, its store, and
// the generators' connections.
type netInst struct {
	r       *run
	srv     *netkv.Server
	clients []*netkv.Client
	vers    []*versions
	get     func(k []byte) ([]byte, bool) // reads the served store directly, for the end-state check
	// closers run in order at close: whatever holds a connection open
	// before the server, the server before its store.
	closers []func() error
	closed  bool

	dir      string         // durable stores: where the store lives
	leader   *shard.Store   // sharded stores
	follower *repl.Follower // net-a-repl
	reopen   bool           // net-a-always: check acked writes after a close and reopen
}

// serve starts the server and dials one connection per generator.
func (n *netInst) serve(ix index.Index, opt netkv.ServerOptions) error {
	srv, err := netkv.ServeOpts("127.0.0.1:0", ix, opt)
	if err != nil {
		return err
	}
	n.srv = srv
	n.closers = append(n.closers, srv.Close)
	for g := 0; g < n.r.gens; g++ {
		c, err := netkv.Dial(srv.Addr())
		if err != nil {
			return err
		}
		n.clients = append(n.clients, c)
	}
	return nil
}

// load writes version 0 of every stable key through a client connection.
func (n *netInst) load() error {
	d := n.r.data
	c := n.clients[0]
	var val [valLen]byte
	for i := 0; i < d.stable; i++ {
		putVal(val[:], d.tags[i], 0)
		c.QueueSet(d.keys[i], val[:])
		if c.Pending() == loadBatch || i == d.stable-1 {
			resps, err := c.Flush()
			if err != nil {
				return err
			}
			for _, rp := range resps {
				if rp.Status != netkv.StatusOK {
					return fmt.Errorf("load: Set answered status %d", rp.Status)
				}
			}
		}
	}
	return nil
}

func (n *netInst) worker(g, gens int) (worker, error) {
	if n.vers == nil {
		n.vers = make([]*versions, gens)
	}
	sp := n.r.sp
	vs := &versions{g: g, gens: gens, ver: make([]uint32, n.r.data.stable)}
	n.vers[g] = vs
	return &netWorker{r: n.r, c: n.clients[g], cur: newCursor(&n.r.data.streams[g]), vs: vs,
		idxs: make([]uint32, sp.batch), gets: make([]bool, sp.batch), want: make([]uint32, sp.batch)}, nil
}

func (n *netInst) finish([]worker) (attempted, failed int64) {
	where, get := "after the run", n.get
	if n.reopen {
		// Acked under sync=always means durable: stop everything, recover
		// from the directory alone and read every acked write back.
		if err := n.close(); err != nil {
			n.r.failf("close before reopen: %v", err)
			return 1, 1
		}
		st, err := shard.Open(shard.Options{Dir: n.dir})
		if err != nil {
			n.r.failf("reopen: %v", err)
			return 1, 1
		}
		defer st.Close()
		where, get = "after close and reopen", st.Get
	}
	attempted, failed = readBack(n.r, where, n.vers, get)
	if n.follower != nil {
		a, f := n.converge()
		attempted, failed = attempted+a, failed+f
	}
	return attempted, failed
}

// drain waits until the follower has applied everything the leader logged.
func (n *netInst) drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		lag, known := n.follower.Lag()
		if known && lag == 0 && n.follower.Store().Count() == n.leader.Count() && n.caughtUp() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not converge in 30s: lag %d (known %v), %d of %d keys",
				lag, known, n.follower.Store().Count(), n.leader.Count())
		}
		time.Sleep(time.Millisecond)
	}
}

// caughtUp compares the follower's applied positions with the ends of the
// leader's logs: Lag alone trusts the leader end the follower last heard.
func (n *netInst) caughtUp() bool {
	applied := n.follower.Applied()
	for i, p := range applied {
		if p != n.leader.WAL(i).EndPos() {
			return false
		}
	}
	return len(applied) == n.leader.NumShards()
}

// converge checks that the follower ends up with the leader's contents.
func (n *netInst) converge() (attempted, failed int64) {
	if err := n.drain(); err != nil {
		n.r.failf("%v", err)
		return 1, 1
	}
	return readBack(n.r, "on the follower", n.vers, n.follower.Store().Get)
}

func (n *netInst) close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	var errs []error
	for _, c := range n.clients {
		c.Close() // the server sees EOF; nothing buffered is lost, every batch was answered
	}
	for _, f := range n.closers {
		errs = append(errs, f())
	}
	if n.dir != "" && !n.reopen {
		errs = append(errs, os.RemoveAll(n.dir))
	}
	return errors.Join(errs...)
}

// ---- the generator ----

type netWorker struct {
	r    *run
	c    *netkv.Client
	cur  cursor
	vs   *versions
	val  [valLen]byte
	idxs []uint32
	gets []bool
	want []uint32 // version a Get of an owned key must return
}

// step is one round trip: a batch of Gets and Sets on zipfian keys, timed
// from Flush to the decoded responses.
func (w *netWorker) step(rs *roundStats) {
	d := w.r.data
	for i := range w.idxs {
		idx, kind := w.cur.next()
		if w.gets[i] = kind == kGet; w.gets[i] {
			w.c.QueueGet(d.keys[idx])
		} else {
			idx = w.vs.own(idx)
			w.vs.ver[idx]++
			putVal(w.val[:], d.tags[idx], uint64(w.vs.ver[idx]))
			w.c.QueueSet(d.keys[idx], w.val[:])
		}
		w.idxs[i], w.want[i] = idx, w.vs.ver[idx]
	}
	rs.attempted += int64(len(w.idxs))
	t0 := now()
	root := w.r.tr.beginBatch()
	resps, err := w.c.Flush()
	rs.sample(t0, now())
	w.r.tr.endBatch(root, t0, len(w.idxs))
	if err != nil {
		// Whether the batch's Sets were applied is unknown, so the version
		// record is no longer exact; the run is already failed.
		w.r.failf("round trip: %v", err)
		if err := w.c.Redial(time.Second); err != nil {
			time.Sleep(10 * time.Millisecond)
		}
		return
	}
	for i, rp := range resps {
		idx := w.idxs[i]
		switch {
		case rp.Status != netkv.StatusOK:
			w.r.failf("op %d of batch (key %d, get=%v): status %d", i, idx, w.gets[i], rp.Status)
		case !w.gets[i]:
			rs.completed++
		case !goodVal(rp.Val, true, d.tags[idx]):
			w.r.failf("Get(key %d): value %x", idx, rp.Val)
		case w.vs.owns(idx) && valWord(rp.Val) != uint64(w.want[i]):
			w.r.failf("Get(key %d): version %d, this connection's last write was %d", idx, valWord(rp.Val), w.want[i])
		default:
			rs.completed++
		}
	}
}

func (w *netWorker) close() {}

// ---- the three served systems ----

// buildNetSmall serves the unsharded wormhole adapter, whkv's default, and
// loads it through a client. Every batch takes netkv's `process` path.
func buildNetSmall(r *run) (instance, error) {
	info, ok := index.Lookup("wormhole")
	if !ok {
		return nil, errors.New(`index "wormhole" is not registered`)
	}
	ix := info.New()
	if err := wrapsAll(ix); err != nil {
		return nil, err
	}
	n := &netInst{r: r, get: ix.Get}
	if err := n.serve(r.tr.wrapIndex(ix), netkv.ServerOptions{}); err != nil {
		n.close()
		return nil, err
	}
	if err := n.load(); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (r *run) sample() [][]byte {
	var s [][]byte
	for i := 0; i < r.data.stable; i += 16 {
		s = append(s, r.data.keys[i])
	}
	return s
}

// durability is the WAL configuration of a served store; a traced pass
// adds the timing filesystem and the WAL's own histograms.
func (r *run) durability(sync wal.SyncPolicy) wal.Options {
	o := wal.Options{Sync: sync}
	if r.tr != nil {
		o.FS, o.Metrics = r.tr.fs, r.tr.wal
	}
	return o
}

// prepared returns a copy of a store directory holding a snapshot of the
// first half of the keys and a WAL tail with the second half. The
// directory is built once per run, outside any timing.
func (r *run) prepared() (string, error) {
	tmpl := filepath.Join(r.dir, "prepared")
	if _, err := os.Stat(tmpl); err != nil {
		st, err := shard.Open(shard.Options{Dir: tmpl, Shards: r.shards, Sample: r.sample()})
		if err != nil {
			return "", err
		}
		d := r.data
		for i := 0; i < d.stable; i++ {
			if i == d.stable/2 {
				if err := st.Snapshot(); err != nil {
					st.Close()
					return "", err
				}
			}
			st.Set(d.keys[i], newVal(d.tags[i], 0))
		}
		if err := st.Close(); err != nil {
			return "", err
		}
	}
	dir, err := os.MkdirTemp(r.dir, "always-")
	if err != nil {
		return "", err
	}
	return dir, copyTree(tmpl, dir)
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p) // p is under src
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// buildNetAlways recovers the prepared directory into a sharded store with
// sync=always, serves it and dials: set-up time is recovery time. Batches
// take netkv's `processSharded` path.
func buildNetAlways(r *run) (instance, error) {
	dir, err := r.prepared()
	if err != nil {
		return nil, err
	}
	n := &netInst{r: r, dir: dir, reopen: true}
	t0 := now()
	st, err := shard.Open(shard.Options{Dir: dir, Durability: r.durability(wal.SyncAlways)})
	if err != nil {
		return nil, err
	}
	r.tr.recovered(t0, now(), dir)
	n.leader, n.get = st, st.Get
	err = n.serve(r.tr.wrapShards(st), netkv.ServerOptions{})
	n.closers = append(n.closers, st.Close)
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// buildNetRepl opens an empty sharded leader with sync=none, loads it
// through a client, then starts a follower on the leader's Subscribe hook
// and waits for it to catch up.
func buildNetRepl(r *run) (instance, error) {
	dir, err := os.MkdirTemp(r.dir, "repl-")
	if err != nil {
		return nil, err
	}
	n := &netInst{r: r, dir: dir}
	st, err := shard.Open(shard.Options{Dir: filepath.Join(dir, "leader"), Shards: r.shards, Sample: r.sample(),
		Durability: r.durability(wal.SyncNone)})
	if err != nil {
		return nil, err
	}
	n.leader, n.get = st, st.Get
	src := repl.NewSource(st)
	err = n.serve(r.tr.wrapShards(st), netkv.ServerOptions{Subscribe: src.ServeSubscriber})
	// The source holds the subscriber's connection handler; it must stop
	// before the server waits for its handlers.
	n.closers = append([]func() error{func() error { src.Close(); return nil }}, n.closers...)
	n.closers = append(n.closers, st.Close)
	if err == nil {
		err = n.load()
	}
	if err == nil {
		n.follower, err = repl.Start(repl.Options{Leader: n.srv.Addr(), Dir: filepath.Join(dir, "follower"),
			AckInterval: 10 * time.Millisecond})
	}
	if err == nil {
		n.closers = append([]func() error{n.follower.Close}, n.closers...)
		err = n.drain()
	}
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// Command whkv runs the networked key-value store of Figure 12: a server
// hosting a Wormhole index — one core, or a range-sharded store of them —
// behind the batched binary protocol, plus a small client for ad-hoc
// operations and load testing.
//
// Usage:
//
//	whkv serve -addr 127.0.0.1:7070                     # one unsharded index
//	whkv serve -addr 127.0.0.1:7070 -shards 8           # sharded store
//	whkv serve -bounds "g,n,t"                          # explicit shard boundaries
//	whkv serve -dir /var/lib/whkv -sync interval        # durable store (WAL + snapshots)
//	whkv serve -dir /var/lib/whkv2 -follow host:7070    # replication follower (read-only)
//	whkv serve -read-timeout 5m -write-timeout 30s -max-inflight 64  # hardened edges
//	whkv serve -metrics-addr 127.0.0.1:9090 -slow-op 50ms  # /metrics, /healthz, pprof, slow-op ring
//	whkv set   -addr 127.0.0.1:7070 -key a -val 1
//	whkv get   -addr 127.0.0.1:7070 -key a
//	whkv scan  -addr 127.0.0.1:7070 -key a -limit 10
//	whkv flush -addr 127.0.0.1:7070                     # fsync barrier on a durable server
//	whkv stat  -addr 127.0.0.1:7070                     # role, keys, WAL, replication lag
//	whkv bench -addr 127.0.0.1:7070 -keys 100000 -batch 800 -duration 2s
//
// A durable server is automatically a replication leader: followers
// subscribe to the same address the clients use. A follower serves reads
// (and rejects writes with StatusReadOnly) while it streams the leader's
// WAL; SIGUSR1 promotes it to a writable standalone store.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/repl"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "serve":
		serve(args)
	case "get", "set", "del", "scan", "flush":
		oneShot(cmd, args)
	case "stat":
		stat(args)
	case "bench":
		clientBench(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: whkv serve|get|set|del|scan|flush|stat|bench [flags]")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	shards := fs.Int("shards", 0, "serve a sharded store of this many shards (without -shards, -bounds or -dir: one unsharded index; a sharded store defaults to min(GOMAXPROCS, 16))")
	bounds := fs.String("bounds", "", "serve a sharded store split at these comma-separated boundary keys (overrides -shards; place them at your keyspace's quantiles, since the default uniform byte ranges put all-ASCII keys in one shard)")
	dir := fs.String("dir", "", "durable mode: persist to this directory (WAL + snapshots per shard; reopening recovers). Implies a sharded store")
	syncMode := fs.String("sync", "none", "durable mode sync policy: none, interval or always")
	follow := fs.String("follow", "", "follower mode: replicate from this leader address, serve reads (writes answer StatusReadOnly); SIGUSR1 promotes to standalone. Combine with -dir so restarts resume the leader's WAL tail instead of resyncing")
	connectTimeout := fs.Duration("connect-timeout", 0, "follower mode: keep retrying the first leader handshake this long before giving up and exiting non-zero (0: one attempt, fail fast)")
	autoPromote := fs.Bool("auto-promote", false, "follower mode: promote automatically when the leader goes silent for -heartbeat-timeout, bumping the replication epoch so the old leader is fenced on first contact")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 2*time.Second, "follower mode: leader silence that triggers -auto-promote")
	readTimeout := fs.Duration("read-timeout", 0, "drop a connection idle longer than this between batches (0: never)")
	writeTimeout := fs.Duration("write-timeout", 0, "drop a connection that cannot absorb a response within this (0: never)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing request batches across all connections; excess connections queue (0: unlimited)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics, /healthz, /debug/pprof and /debug/slowops on this address (empty: no listener; metrics are still recorded)")
	slowOp := fs.Duration("slow-op", 100*time.Millisecond, "ops slower than this land in the slow-op ring (/debug/slowops and whkv stat)")
	fs.Parse(args)
	obs := newObservability(*slowOp)
	hardening := netkv.ServerOptions{
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		MaxInflight:  *maxInflight,
		Metrics:      obs.srv,
	}
	if *follow != "" {
		serveFollower(followerConfig{
			addr: *addr, leader: *follow, dir: *dir, syncMode: *syncMode,
			connectTimeout: *connectTimeout, autoPromote: *autoPromote,
			heartbeatTimeout: *heartbeatTimeout, hardening: hardening,
			metricsAddr: *metricsAddr, obs: obs,
		})
		return
	}
	o := shard.Options{Shards: *shards}
	if *bounds != "" {
		var bs [][]byte
		for _, b := range strings.Split(*bounds, ",") {
			bs = append(bs, []byte(strings.TrimSpace(b)))
		}
		o.Partitioner = shard.NewExplicit(bs)
	}
	var ix index.Index
	var durable *shard.Store
	served := "wormhole"
	switch {
	case *dir != "":
		policy, err := wal.ParsePolicy(*syncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whkv:", err)
			os.Exit(2)
		}
		o.Dir = *dir
		o.Durability = wal.Options{Sync: policy, Metrics: obs.wal}
		st, err := shard.Open(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whkv:", err)
			os.Exit(1)
		}
		fmt.Printf("whkv: recovered %d snapshot pairs + %d WAL records from %s\n",
			st.RecoveredPairs(), st.RecoveredRecords(), *dir)
		ix, durable = st, st
		served = fmt.Sprintf("durable wormhole-sharded (%d shards, sync=%s, replication leader)",
			st.NumShards(), policy)
	case *shards > 0 || *bounds != "":
		st := shard.New(o)
		ix = st
		served = fmt.Sprintf("wormhole-sharded (%d shards)", st.NumShards())
	default:
		ix = core.New(core.DefaultOptions())
	}
	// A durable store doubles as a replication leader: followers subscribe
	// on the same address clients use.
	opts := hardening
	var src *repl.Source
	if durable != nil {
		src = repl.NewSource(durable)
		opts.Subscribe = src.ServeSubscriber
		opts.StatFill = src.FillStat
	}
	srv, err := netkv.ServeOpts(*addr, ix, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	obs.armIndex(ix)
	health := func() error { return nil }
	if st, ok := ix.(*shard.Store); ok {
		obs.armStore(st)
		health = storeHealth(st)
	}
	if src != nil {
		obs.armLeader(src.FillStat)
	}
	obs.serveDebug(*metricsAddr, health)
	fmt.Printf("whkv: serving %s on %s\n", served, srv.Addr())
	// Run until killed; on SIGINT/SIGTERM drain connections and, in
	// durable mode, flush and close the WALs so a clean shutdown loses
	// nothing even under -sync none.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("whkv: shutting down")
	if src != nil {
		// Subscriber streams hold their connection handlers; detach them
		// first or the server's drain would wait forever.
		src.Close()
	}
	srv.Close()
	if durable != nil {
		if err := durable.Close(); err != nil {
			// The sticky WAL error means acked writes may not have reached
			// stable storage: say which shards, then exit non-zero so
			// supervisors notice the data loss risk.
			fmt.Fprintln(os.Stderr, "whkv: closing store:", err)
			printDegraded(durable.Health())
			os.Exit(1)
		}
	}
}

// printDegraded reports each degraded shard's sticky failure to stderr.
func printDegraded(hs []wal.Health) {
	for i, h := range hs {
		if h.Degraded {
			fmt.Fprintf(os.Stderr, "whkv: shard %d degraded: %s (heal attempts: %d)\n",
				i, h.Err, h.HealAttempts)
		}
	}
}

// followerConfig bundles serveFollower's knobs.
type followerConfig struct {
	addr, leader, dir, syncMode string
	connectTimeout              time.Duration
	autoPromote                 bool
	heartbeatTimeout            time.Duration
	hardening                   netkv.ServerOptions
	metricsAddr                 string
	obs                         *observability
}

// serveFollower runs replication-follower mode: stream the leader's WAL
// into a local store, serve reads from it, reject writes, and promote to
// a writable standalone store on SIGUSR1 — or automatically on leader
// silence with -auto-promote, which bumps the replication epoch so the old
// leader is fenced on first contact with the new lineage.
func serveFollower(c followerConfig) {
	policy, err := wal.ParsePolicy(c.syncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(2)
	}
	// Auto-promotion may fire from the follower's monitor goroutine before
	// the serving socket below exists; the promotion handler waits for it.
	var srvP atomic.Pointer[netkv.Server]
	srvReady := make(chan struct{})
	var autoPromoted atomic.Bool
	promotions := c.obs.reg.Counter("whkv_promotions_total",
		"Promotions of this follower to a writable leader.")
	o := repl.Options{
		Leader:     c.leader,
		Dir:        c.dir,
		Durability: wal.Options{Sync: policy, Metrics: c.obs.wal},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "whkv: "+format+"\n", args...)
		},
	}
	if c.autoPromote {
		o.AutoPromote = true
		o.HeartbeatTimeout = c.heartbeatTimeout
		o.OnPromote = func(st *shard.Store) {
			<-srvReady
			if srv := srvP.Load(); srv != nil {
				srv.SetReadOnly(false)
			}
			autoPromoted.Store(true)
			promotions.Inc()
			fmt.Printf("whkv: leader %s silent for %v: auto-promoted to epoch %d (writes enabled)\n",
				c.leader, c.heartbeatTimeout, st.Epoch())
			// Best-effort fence of the old leader, should it still be alive
			// behind a partition: a direct FENCE closes the window before
			// replication-level contact would. Failure is fine — a dead
			// leader is fenced on its first contact with this lineage.
			if cl, err := netkv.Dial(c.leader); err == nil {
				cl.Timeout = 2 * time.Second
				if err := cl.Fence(st.Epoch()); err == nil {
					fmt.Printf("whkv: fenced old leader %s at epoch %d\n", c.leader, st.Epoch())
				}
				cl.Close()
			}
		}
	}
	// -connect-timeout: the first handshake may race the leader's own
	// startup (an init system bringing both up), so retry it rather than
	// failing fast — but never indefinitely, and exit non-zero when the
	// leader never materializes.
	deadline := time.Now().Add(c.connectTimeout)
	f, err := repl.Start(o)
	for err != nil && c.connectTimeout > 0 && time.Now().Before(deadline) {
		fmt.Fprintf(os.Stderr, "whkv: waiting for leader: %v\n", err)
		time.Sleep(500 * time.Millisecond)
		f, err = repl.Start(o)
	}
	if err != nil {
		close(srvReady)
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	st := f.Store()
	opts := c.hardening
	opts.ReadOnly = true
	opts.StatFill = f.FillStat
	srv, err := netkv.ServeOpts(c.addr, st, opts)
	if err != nil {
		close(srvReady)
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	srvP.Store(srv)
	close(srvReady)
	c.obs.armIndex(st)
	c.obs.armStore(st)
	c.obs.armFollower(f.FillStat)
	c.obs.serveDebug(c.metricsAddr, storeHealth(st))
	persisted := "volatile; resyncs on restart"
	if c.dir != "" {
		persisted = "durable in " + c.dir
	}
	promoteHow := "SIGUSR1 promotes"
	if c.autoPromote {
		promoteHow = fmt.Sprintf("auto-promote after %v of leader silence (SIGUSR1 forces it)", c.heartbeatTimeout)
	}
	fmt.Printf("whkv: following %s on %s (%d shards, %s); %s\n",
		c.leader, srv.Addr(), st.NumShards(), persisted, promoteHow)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	promoted := false
	for s := range sig {
		if s == syscall.SIGUSR1 && !promoted && !autoPromoted.Load() {
			// Clean promotion: stop streaming, bump the epoch, then open
			// the store to writes. The process keeps serving without a
			// restart. Promote is idempotent against a racing
			// auto-promotion — exactly one epoch bump happens.
			if f.Promote() != nil {
				srv.SetReadOnly(false)
				promoted = true
				promotions.Inc()
				fmt.Printf("whkv: promoted to epoch %d (writes enabled, replication stopped)\n", st.Epoch())
			}
			continue
		}
		if s == syscall.SIGUSR1 {
			continue
		}
		break
	}
	fmt.Println("whkv: shutting down")
	srv.Close()
	// Close the follower first: it stops the auto-promote monitor, so the
	// promotion state is final when deciding who owns the store (a
	// promotion — manual or automatic — transferred ownership to us).
	err = f.Close()
	if promoted || autoPromoted.Load() {
		err = st.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv: closing store:", err)
		printDegraded(st.Health())
		os.Exit(1)
	}
}

// stat prints a server's OpStat document.
func stat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	fs.Parse(args)
	cl, err := netkv.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	defer cl.Close()
	st, err := cl.Stat()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	fmt.Printf("role:      %s%s\n", st.Role, map[bool]string{true: " (read-only)"}[st.ReadOnly])
	if st.Epoch > 0 {
		fmt.Printf("epoch:     %d\n", st.Epoch)
	}
	if st.FencedBy > 0 {
		fmt.Printf("fenced:    by epoch %d (stale leader; writes answer StatusFenced)\n", st.FencedBy)
	}
	fmt.Printf("keys:      %d\n", st.Keys)
	if st.Shards > 0 {
		fmt.Printf("shards:    %d\n", st.Shards)
	}
	fmt.Printf("durable:   %v\n", st.Durable)
	if st.Durable {
		fmt.Printf("wal bytes: %s (%d)\n", humanBytes(st.WALBytes), st.WALBytes)
		fmt.Printf("gens:      %v\n", st.Gens)
	}
	if st.UptimeS > 0 || st.GoVersion != "" {
		fmt.Printf("uptime:    %v\n", time.Duration(st.UptimeS)*time.Second)
		fmt.Printf("runtime:   %s, %d goroutines, heap %s (sys %s), %d GCs\n",
			st.GoVersion, st.Goroutines,
			humanBytes(int64(st.HeapAllocBytes)), humanBytes(int64(st.HeapSysBytes)),
			st.GCCycles)
	}
	if st.SlowOps > 0 {
		fmt.Printf("slow ops:  %d traced (see /debug/slowops on the metrics listener)\n", st.SlowOps)
	}
	healthy := 0
	for _, h := range st.Health {
		if !h.Degraded {
			healthy++
		}
	}
	if len(st.Health) > 0 {
		fmt.Printf("health:    %d/%d shards ok\n", healthy, len(st.Health))
		for i, h := range st.Health {
			if h.Degraded {
				fmt.Printf("shard %-4d degraded: %s (heal attempts: %d)\n", i, h.Err, h.HealAttempts)
			}
		}
	}
	for _, fo := range st.Followers {
		lag := fmt.Sprintf("%d records", fo.LagRecords)
		if fo.LagRecords < 0 {
			lag = "spans a WAL rotation"
		}
		fmt.Printf("follower:  %s lag %s, last ack %v ago, %d snapshots sent\n",
			fo.Remote, lag, time.Duration(fo.AckAgeMS)*time.Millisecond, fo.SnapshotsSent)
	}
	if st.Role == "follower" {
		fmt.Printf("leader:    %s (connected: %v)\n", st.Leader, st.Connected)
		if st.LeaderEpoch > 0 {
			fmt.Printf("leader epoch: %d\n", st.LeaderEpoch)
		}
		if st.LagRecords != nil {
			if *st.LagRecords < 0 {
				fmt.Printf("lag:       spans a WAL rotation\n")
			} else {
				fmt.Printf("lag:       %d records\n", *st.LagRecords)
			}
		}
		fmt.Printf("applied:   %v\n", st.Applied)
		if st.SnapshotsApplied > 0 {
			fmt.Printf("snapshots: %d applied\n", st.SnapshotsApplied)
		}
	}
}

func oneShot(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	key := fs.String("key", "", "key")
	val := fs.String("val", "", "value (set)")
	limit := fs.Int("limit", 10, "scan limit")
	fs.Parse(args)
	cl, err := netkv.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	defer cl.Close()
	switch cmd {
	case "get":
		cl.QueueGet([]byte(*key))
	case "set":
		cl.QueueSet([]byte(*key), []byte(*val))
	case "del":
		cl.QueueDel([]byte(*key))
	case "scan":
		cl.QueueScan([]byte(*key), *limit)
	case "flush":
		cl.QueueFlush()
	}
	rs, err := cl.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	r := rs[0]
	switch cmd {
	case "get":
		if r.Status == netkv.StatusOK {
			fmt.Printf("%s\n", r.Val)
		} else {
			fmt.Println("(not found)")
		}
	case "set":
		switch r.Status {
		case netkv.StatusOK:
			fmt.Println("ok")
		case netkv.StatusReadOnly:
			fmt.Fprintln(os.Stderr, "whkv: server is a read-only follower; write to the leader")
			os.Exit(1)
		case netkv.StatusDegraded:
			fmt.Fprintln(os.Stderr, "whkv: shard is degraded (WAL write failing); refusing writes until it heals — see whkv stat")
			os.Exit(1)
		case netkv.StatusFenced:
			fmt.Fprintln(os.Stderr, "whkv: server is a fenced stale leader (a higher epoch exists); the write was NOT applied — resend it to the current leader (see whkv stat for both epochs)")
			os.Exit(1)
		default:
			fmt.Fprintln(os.Stderr, "whkv: set failed on the server")
			os.Exit(1)
		}
	case "del":
		switch r.Status {
		case netkv.StatusOK:
			fmt.Println("deleted")
		case netkv.StatusReadOnly:
			fmt.Fprintln(os.Stderr, "whkv: server is a read-only follower; write to the leader")
			os.Exit(1)
		case netkv.StatusDegraded:
			fmt.Fprintln(os.Stderr, "whkv: shard is degraded (WAL write failing); refusing writes until it heals — see whkv stat")
			os.Exit(1)
		case netkv.StatusFenced:
			fmt.Fprintln(os.Stderr, "whkv: server is a fenced stale leader (a higher epoch exists); the delete was NOT applied — resend it to the current leader (see whkv stat for both epochs)")
			os.Exit(1)
		default:
			fmt.Println("(not found)")
		}
	case "scan":
		for i := range r.Keys {
			fmt.Printf("%s = %s\n", r.Keys[i], r.Vals[i])
		}
	case "flush":
		switch r.Status {
		case netkv.StatusOK:
			fmt.Println("flushed")
		case netkv.StatusNotFound:
			fmt.Println("(server is volatile)")
		default:
			fmt.Fprintln(os.Stderr, "whkv: flush failed on the server (sticky WAL error; see whkv stat for per-shard health)")
			os.Exit(1)
		}
	}
}

func clientBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	keys := fs.Int("keys", 100_000, "keys to load before measuring")
	batch := fs.Int("batch", netkv.DefaultBatch, "requests per batch")
	dur := fs.Duration("duration", 2*time.Second, "measurement window")
	fs.Parse(args)
	cl, err := netkv.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	defer cl.Close()
	for i := 0; i < *keys; i++ {
		cl.QueueSet([]byte(fmt.Sprintf("bench:%08d", i)), []byte("v"))
		if cl.Pending() >= *batch {
			if _, err := cl.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "whkv:", err)
				os.Exit(1)
			}
		}
	}
	if _, err := cl.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d keys; measuring GETs for %v (batch %d)\n", *keys, *dur, *batch)
	start := time.Now()
	ops := 0
	for time.Since(start) < *dur {
		for i := 0; i < *batch; i++ {
			cl.QueueGet([]byte(fmt.Sprintf("bench:%08d", rand.IntN(*keys))))
		}
		rs, err := cl.Flush()
		if err != nil {
			fmt.Fprintln(os.Stderr, "whkv:", err)
			os.Exit(1)
		}
		for _, rp := range rs {
			if rp.Status != netkv.StatusOK {
				fmt.Fprintln(os.Stderr, "whkv: missing key during bench")
				os.Exit(1)
			}
		}
		ops += *batch
	}
	el := time.Since(start).Seconds()
	fmt.Printf("%d lookups in %.2fs = %.2f MOPS\n", ops, el, float64(ops)/el/1e6)
}

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/repl"
	"github.com/repro/wormhole/internal/shard"
)

// Failover measures what a leader death costs on Az1, end to end:
//
//   - "time to writable (ms)": from the instant the leader is killed to
//     the follower's auto-promotion completing (epoch durably bumped, its
//     server accepting writes) — the control-plane half of failover;
//   - "client gap (ms)": the longest pause between two successful writes
//     observed by a failover-aware MultiClient writing through the whole
//     event — the user-visible unavailability window, which adds the
//     client's own detection-and-rotation time on top;
//   - "post-failover set (MOPS)": write throughput against the promoted
//     leader, confirming the new term serves at full speed.
//
// The schedule is the whkv quickstart's: a leader and one auto-promote
// follower (500ms heartbeat timeout), a client configured with both
// addresses, kill -9 equivalent on the leader. Values are milliseconds in
// the MOPS column for the first two rows (durations, not rates).
func Failover(c *Config) {
	keys := c.Keyset("Az1")

	root := c.Dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "whbench-failover-*")
		if err != nil {
			c.printf("failover: %v\n", err)
			return
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	report := func(op string, val float64) {
		c.printf("%-24s%10.2f\n", op, val)
		c.record(Result{
			Exp: "failover", Op: op, Index: "wormhole-sharded", Threads: 1,
			Keys: len(keys), MOPS: val,
		})
	}

	leader, err := shard.Open(shard.Options{Dir: filepath.Join(root, "leader"), Sample: keys})
	if err != nil {
		c.printf("failover: open leader: %v\n", err)
		return
	}
	src := repl.NewSource(leader)
	// The read timeout is what lets the kill complete while a client
	// connection is parked on the server: the handler exits on its own.
	srvL, err := netkv.ServeOpts("127.0.0.1:0", leader, netkv.ServerOptions{
		Subscribe:   src.ServeSubscriber,
		ReadTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		c.printf("failover: serve leader: %v\n", err)
		leader.Close()
		return
	}
	loadStriped(leader, keys, c.Threads)

	const heartbeatTimeout = 500 * time.Millisecond
	promotedAt := make(chan time.Time, 1)
	// The promotion hook may fire from the monitor goroutine while this
	// function is still wiring the follower's server: hand the server over
	// through a published pointer gated on a ready channel, the same shape
	// whkv serve -follow uses.
	var srvP atomic.Pointer[netkv.Server]
	srvReady := make(chan struct{})
	f, err := repl.Start(repl.Options{
		Leader:           srvL.Addr(),
		Dir:              filepath.Join(root, "follower"),
		AckInterval:      10 * time.Millisecond,
		BackoffMin:       10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		AutoPromote:      true,
		HeartbeatTimeout: heartbeatTimeout,
		OnPromote: func(*shard.Store) {
			<-srvReady
			if s := srvP.Load(); s != nil {
				s.SetReadOnly(false)
			}
			promotedAt <- time.Now()
		},
	})
	if err != nil {
		c.printf("failover: start follower: %v\n", err)
		close(srvReady)
		srvL.Close()
		src.Close()
		leader.Close()
		return
	}
	srvF, err := netkv.ServeOpts("127.0.0.1:0", f.Store(), netkv.ServerOptions{
		ReadOnly:    true,
		StatFill:    f.FillStat,
		ReadTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		c.printf("failover: serve follower: %v\n", err)
		close(srvReady)
		f.Close()
		srvL.Close()
		src.Close()
		leader.Close()
		return
	}
	srvP.Store(srvF)
	close(srvReady)
	defer srvF.Close()

	// The writer the failover happens under: one key per op, tight loop,
	// budgeted generously so the promotion gap heals inside one Set call.
	mc, err := netkv.DialMulti(srvL.Addr(), srvF.Addr())
	if err != nil {
		c.printf("failover: %v\n", err)
		return
	}
	defer mc.Close()
	mc.Timeout = 30 * time.Second
	stop := make(chan struct{})
	gapc := make(chan time.Duration, 1)
	writeErrs := 0
	go func() {
		var maxGap time.Duration
		last := time.Now()
		val := []byte("failover-val")
		for i := 0; ; i++ {
			select {
			case <-stop:
				gapc <- maxGap
				return
			default:
			}
			if err := mc.Set([]byte(fmt.Sprintf("fo-%07d", i)), val); err != nil {
				writeErrs++
				continue
			}
			now := time.Now()
			if g := now.Sub(last); g > maxGap {
				maxGap = g
			}
			last = now
		}
	}()

	// Warm up, then kill the leader: stream severed, listener gone, store
	// closed — everything a dead process stops doing.
	time.Sleep(500 * time.Millisecond)
	killedAt := time.Now()
	src.Close()
	srvL.Close()
	leader.Close()

	var promoteLatency time.Duration
	select {
	case at := <-promotedAt:
		promoteLatency = at.Sub(killedAt)
	case <-time.After(30 * time.Second):
		c.printf("failover: auto-promotion never fired\n")
		close(stop)
		<-gapc
		f.Close()
		return
	}
	// Let the writer demonstrably land writes on the new leader before
	// reading the gap.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	maxGap := <-gapc

	report("time to writable (ms)", float64(promoteLatency.Milliseconds()))
	report("client gap (ms)", float64(maxGap.Milliseconds()))
	if writeErrs > 0 {
		c.printf("  (%d writes exhausted the client budget during failover)\n", writeErrs)
	}

	// The promoted leader at full speed: plain Sets against the store the
	// follower now owns.
	st := f.Promote() // idempotent: returns the auto-promoted store
	if st == nil {
		c.printf("failover: promoted store unavailable\n")
		f.Close()
		return
	}
	val := []byte("failover-val")
	n := len(keys)
	report("post-failover set (MOPS)", Throughput(c.Threads, c.Duration, c.Seed, func(_ int, r *Rng) {
		st.Set(keys[r.Intn(n)], val)
	}))
	if err := f.Close(); err != nil {
		c.printf("failover: close follower: %v\n", err)
	}
	if err := st.Close(); err != nil {
		c.printf("failover: close promoted store: %v\n", err)
	}
}

// loadStriped loads keys with `threads` workers over contiguous stripes —
// a full pass, not a timed window, so the leader holds the whole keyset
// before the follower subscribes.
func loadStriped(st *shard.Store, keys [][]byte, threads int) {
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	stripe := (len(keys) + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * stripe
		hi := min(lo+stripe, len(keys))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part [][]byte) {
			defer wg.Done()
			for _, k := range part {
				st.Set(k, k)
			}
		}(keys[lo:hi])
	}
	wg.Wait()
}

package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// observability bundles one process's metrics surface: the registry, the
// slow-op ring, the netkv server bundle and the WAL bundle. Recording is
// always armed — it costs nanoseconds — while the HTTP listener only
// exists when -metrics-addr is set.
type observability struct {
	reg  *metrics.Registry
	slow *metrics.SlowLog
	srv  *netkv.ServerMetrics
	wal  *wal.Metrics
}

func newObservability(slowOp time.Duration) *observability {
	reg := metrics.NewRegistry()
	slow := metrics.NewSlowLog(128, slowOp)
	o := &observability{
		reg:  reg,
		slow: slow,
		srv:  netkv.NewServerMetrics(reg, slow),
		wal:  wal.NewMetrics(reg),
	}
	metrics.RegisterRuntime(reg, "whkv")
	start := time.Now()
	reg.GaugeFunc("whkv_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(start).Seconds() })
	return o
}

// armIndex registers the collectors every served index supports: the live
// key count and, where the index exposes it, QSBR reader lag.
func (o *observability) armIndex(ix index.Index) {
	o.reg.GaugeFunc("whkv_keys", "Live keys in the served index.",
		func() float64 { return float64(ix.Count()) })
	if q, ok := ix.(interface{ QSBRReaderLag() uint64 }); ok {
		o.reg.GaugeFunc("whkv_qsbr_reader_lag_epochs",
			"Grace-period epochs the slowest active reader trails the write side (on a sharded store, its slowest shard).",
			func() float64 { return float64(q.QSBRReaderLag()) })
	}
}

// armStore registers the sharded-store collectors: batch-path histograms,
// epoch/fencing gauges and — on durable stores — WAL size and the
// degraded-mode state machine.
func (o *observability) armStore(st *shard.Store) {
	st.SetBatchMetrics(shard.NewBatchMetrics(o.reg))
	o.reg.GaugeFunc("whkv_epoch", "Replication epoch of the served store.",
		func() float64 { return float64(st.Epoch()) })
	o.reg.GaugeFunc("whkv_fenced_by_epoch",
		"Higher epoch that fenced this store (0: not fenced).",
		func() float64 { return float64(st.FencedBy()) })
	if !st.Durable() {
		return
	}
	o.reg.GaugeFunc("whkv_wal_bytes",
		"Framed bytes in the active WAL generations (replay cost of a crash now).",
		func() float64 { return float64(st.WALBytes()) })
	o.reg.GaugeFunc("whkv_degraded_shards",
		"Shards refusing writes because their WAL append is failing.",
		func() float64 {
			n := 0
			for _, h := range st.Health() {
				if h.Degraded {
					n++
				}
			}
			return float64(n)
		})
	o.reg.CollectFunc("whkv_heal_attempts_total",
		"Background WAL heal probes per shard.", metrics.KindCounter,
		func(emit func([]string, float64)) {
			var total float64
			for _, h := range st.Health() {
				total += float64(h.HealAttempts)
			}
			emit(nil, total)
		})
}

// armLeader registers per-follower replication gauges, resolved at scrape
// time from the same FillStat snapshot `whkv stat` reads.
func (o *observability) armLeader(fill func(*netkv.Stat)) {
	o.reg.CollectFunc("whkv_follower_lag_records",
		"Records streamed to a follower but not yet acked (-1: spans a WAL rotation).",
		metrics.KindGauge, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			for _, fo := range st.Followers {
				emit([]string{"remote", fo.Remote}, float64(fo.LagRecords))
			}
		})
	o.reg.CollectFunc("whkv_follower_ack_age_seconds",
		"Time since a follower's last ack.",
		metrics.KindGauge, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			for _, fo := range st.Followers {
				emit([]string{"remote", fo.Remote}, float64(fo.AckAgeMS)/1e3)
			}
		})
	o.reg.CollectFunc("whkv_follower_snapshots_sent_total",
		"Shard snapshot catch-ups streamed to a follower.",
		metrics.KindCounter, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			for _, fo := range st.Followers {
				emit([]string{"remote", fo.Remote}, float64(fo.SnapshotsSent))
			}
		})
}

// armFollower registers the follower-side replication gauges.
func (o *observability) armFollower(fill func(*netkv.Stat)) {
	o.reg.CollectFunc("whkv_repl_lag_records",
		"Records behind the leader's WAL end (-1: spans a rotation, uncountable).",
		metrics.KindGauge, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			if st.LagRecords != nil {
				emit(nil, float64(*st.LagRecords))
			}
		})
	o.reg.CollectFunc("whkv_repl_connected",
		"1 while the leader stream is up.",
		metrics.KindGauge, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			if st.Connected {
				emit(nil, 1)
			} else {
				emit(nil, 0)
			}
		})
	o.reg.CollectFunc("whkv_repl_snapshots_applied_total",
		"Shard snapshot catch-ups applied from the leader.",
		metrics.KindCounter, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			emit(nil, float64(st.SnapshotsApplied))
		})
	o.reg.CollectFunc("whkv_leader_epoch",
		"Highest leader epoch this follower has observed.",
		metrics.KindGauge, func(emit func([]string, float64)) {
			var st netkv.Stat
			fill(&st)
			emit(nil, float64(st.LeaderEpoch))
		})
}

// serveDebug exposes /metrics, /healthz, /debug/slowops and /debug/pprof
// on their own listener when -metrics-addr is set.
func (o *observability) serveDebug(addr string, health func() error) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv: metrics listener:", err)
		os.Exit(1)
	}
	go http.Serve(ln, metrics.DebugMux(o.reg, o.slow, health))
	fmt.Printf("whkv: metrics on http://%s/metrics (pprof /debug/pprof, slow ops /debug/slowops)\n",
		ln.Addr())
}

// storeHealth derives /healthz from the store's failure state machines: a
// fenced stale leader or a degraded shard reports unhealthy (503).
func storeHealth(st *shard.Store) func() error {
	return func() error {
		if by := st.FencedBy(); by > 0 {
			return fmt.Errorf("fenced by epoch %d (stale leader)", by)
		}
		degraded := 0
		for _, h := range st.Health() {
			if h.Degraded {
				degraded++
			}
		}
		if degraded > 0 {
			return fmt.Errorf("%d shard(s) degraded (WAL write failing)", degraded)
		}
		return nil
	}
}

// humanBytes renders n in binary units for human-facing output.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

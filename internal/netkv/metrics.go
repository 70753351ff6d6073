package netkv

import (
	"time"

	"github.com/repro/wormhole/internal/metrics"
)

// Op and status names used as Prometheus label values and in slow-op
// traces. Indexed by wire code; pre-built so the record path never
// formats a string.
var opNames = [OpFence + 1]string{
	OpGet:       "get",
	OpSet:       "set",
	OpDel:       "del",
	OpScan:      "scan",
	OpScanDesc:  "scan_desc",
	OpFlush:     "flush",
	OpStat:      "stat",
	OpSubscribe: "subscribe",
	OpFence:     "fence",
}

var statusNames = [StatusFenced + 1]string{
	StatusOK:       "ok",
	StatusNotFound: "not_found",
	StatusErr:      "err",
	StatusReadOnly: "read_only",
	StatusDegraded: "degraded",
	StatusFenced:   "fenced",
}

// ServerMetrics holds the server's pre-registered instruments. Every
// series is created at construction, so the serving hot path only
// touches striped atomics — no registry lookups, no label formatting,
// no allocation. A nil *ServerMetrics is valid and records nothing
// (the record path nil-checks before touching the clock).
type ServerMetrics struct {
	// Slow, when non-nil, is the slow-op tracer fed by every timed
	// operation.
	Slow *metrics.SlowLog

	ops     [OpFence + 1][StatusFenced + 1]*metrics.Counter
	latency [OpFence + 1]*metrics.Histogram

	batches      *metrics.Counter
	batchOps     *metrics.Counter
	batchSeconds *metrics.Histogram

	inflight    *metrics.Gauge
	bpWaiting   *metrics.Gauge
	bpWaits     *metrics.Counter
	conns       *metrics.Gauge
	subscribers *metrics.Gauge
}

// NewServerMetrics registers the netkv family set on reg and returns the
// instrument bundle to pass in ServerOptions.Metrics. slow may be nil
// (no slow-op tracing).
func NewServerMetrics(reg *metrics.Registry, slow *metrics.SlowLog) *ServerMetrics {
	m := &ServerMetrics{Slow: slow}
	for op := range opNames {
		if opNames[op] == "" {
			continue
		}
		for st := range statusNames {
			m.ops[op][st] = reg.Counter("netkv_ops_total",
				"Operations served, by opcode and response status.",
				"op", opNames[op], "status", statusNames[st])
		}
		if byte(op) != OpSubscribe { // a subscription is a stream, not a latency
			m.latency[op] = reg.Histogram("netkv_op_seconds",
				"Per-operation serving latency.", "op", opNames[op])
		}
	}
	m.batches = reg.Counter("netkv_batches_total", "Request batches served.")
	m.batchOps = reg.Counter("netkv_batch_ops_total", "Operations received inside batches.")
	m.batchSeconds = reg.Histogram("netkv_batch_seconds",
		"Whole-batch serving latency (process and commit, up to the reply write).")
	m.inflight = reg.Gauge("netkv_inflight_batches", "Batches currently processing.")
	m.bpWaiting = reg.Gauge("netkv_backpressure_waiting",
		"Batches waiting on the max-inflight cap right now.")
	m.bpWaits = reg.Counter("netkv_backpressure_waits_total",
		"Batches that had to wait on the max-inflight cap.")
	m.conns = reg.Gauge("netkv_connections", "Open client connections.")
	m.subscribers = reg.Gauge("netkv_subscribers", "Replication streams being served.")
	if slow != nil {
		reg.CollectFunc("netkv_slow_ops_total",
			"Operations that exceeded the slow-op threshold.", metrics.KindCounter,
			func(emit func([]string, float64)) { emit(nil, float64(slow.Total())) })
	}
	return m
}

// record counts one operation's outcome and, when d > 0, its latency —
// feeding the per-op histogram and the slow-op tracer. d == 0 means the
// caller had no timing for the op (e.g. a panicked worker group); the
// outcome still counts, the latency distribution stays honest.
func (m *ServerMetrics) record(op, status byte, key []byte, d time.Duration) {
	if m == nil || int(op) >= len(m.ops) || int(status) >= len(statusNames) {
		return
	}
	m.ops[op][status].Inc()
	if d > 0 {
		if h := m.latency[op]; h != nil {
			h.Observe(d)
		}
		m.Slow.Record(opNames[op], key, statusNames[status], d)
	}
}

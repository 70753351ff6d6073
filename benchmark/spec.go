package main

// metricDef names one metric; BENCHMARK.json lists the same names, units,
// directions and bounds, and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the store sees; the bound is the share of
// the parent's median a metric may worsen by before it is a regression.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"mem_bytes_per_key", "B", "lower", 0.02},
}

// perLayer is what the traced run reports. A value of 0 means the layer
// is not on that workload's path.
var perLayer = []metricDef{
	{Name: "core.get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.getbatch_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "core.set_ns", Unit: "ns", Better: "lower"},
	{Name: "core.del_ns", Unit: "ns", Better: "lower"},
	{Name: "core.scan_first_ns", Unit: "ns", Better: "lower"},
	{Name: "core.scan_next_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "core.bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "core.leaves", Unit: "count", Better: "lower"},
	{Name: "core.keys_per_leaf", Unit: "count", Better: "higher"},
	{Name: "core.self_share", Unit: "frac", Better: "lower"},
	{Name: "netkv.self_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "netkv.self_share", Unit: "frac", Better: "lower"},
	{Name: "shard.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "shard.self_share", Unit: "frac", Better: "lower"},
	{Name: "wal.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.commit_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.self_share", Unit: "frac", Better: "lower"},
	{Name: "vfs.writes", Unit: "count", Better: "lower"},
	{Name: "vfs.write_bytes", Unit: "B", Better: "lower"},
	{Name: "vfs.syncs", Unit: "count", Better: "lower"},
	{Name: "vfs.sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "vfs.sets_per_sync", Unit: "count", Better: "higher"},
	{Name: "vfs.self_share", Unit: "frac", Better: "lower"},
	{Name: "repl.lag_records_p50", Unit: "count", Better: "lower"},
	{Name: "repl.lag_records_max", Unit: "count", Better: "lower"},
	{Name: "repl.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// Op kinds. What a kind means depends on the workload family; mix gives
// the share of each kind in order.
const (
	kGet = iota
	kSet
	kInsert
	kDel
)

const (
	kScanAsc = iota
	kScanDesc
	kChurnIn
	kChurnOut
)

// spec is one workload: which keys, which op mix, which system under
// test. Names are fixed; later issues cite them.
type spec struct {
	name, why string
	keyset    string
	keys      int // stable keys, loaded at set-up and never deleted
	reserve   int // extra keys that churn inserts and deletes
	zipfian   bool
	scans     bool
	mix       []float64
	batch     int // net workloads: ops per round trip
	traceOps  int
	build     func(*run) (instance, error)
	// layers lists the per-layer metrics that must be positive on this
	// workload; the rest may be 0.
	layers []string
}

var coreShape = []string{"core.bytes_per_key", "core.leaves", "core.keys_per_leaf", "core.self_share"}

var specs = []*spec{
	{
		name: "core-c-az1", keyset: "Az1", keys: 500_000, traceOps: 50_000,
		why:    "in-process point reads (64 Get then one GetBatch(64)), uniform over 500k Az1 keys: the core read path does all the work, netkv/shard/wal idle",
		mix:    []float64{1},
		build:  buildCoreC,
		layers: append([]string{"core.get_ns", "core.getbatch_ns_per_key"}, coreShape...),
	},
	{
		name: "core-a-url", keyset: "Url", keys: 500_000, reserve: 50_000, zipfian: true, traceOps: 50_000,
		why:    "in-process 50% Get, 40% update, 5% insert, 5% delete by concurrent writers on long zipfian Url keys: a read gain that costs writers shows here",
		mix:    []float64{0.50, 0.40, 0.05, 0.05},
		build:  buildCoreA,
		layers: append([]string{"core.get_ns", "core.set_ns", "core.del_ns"}, coreShape...),
	},
	{
		name: "core-e-az1", keyset: "Az1", keys: 500_000, reserve: 50_000, scans: true, traceOps: 50_000,
		why:    "in-process 50-key scans, half ascending and half descending, under 5% insert/delete churn, each checked against a sorted oracle: the core scan path",
		mix:    []float64{0.475, 0.475, 0.025, 0.025},
		build:  buildCoreE,
		layers: append([]string{"core.scan_first_ns", "core.scan_next_ns_per_key", "core.set_ns", "core.del_ns"}, coreShape...),
	},
	{
		name: "net-b-small", keyset: "Az1", keys: 500_000, zipfian: true, batch: 8, traceOps: 50_000,
		why:    "netkv over loopback on the unsharded index, 95% Get and 5% Set in batches of 8: framing and syscalls dominate, so a core speed-up predicts no change",
		mix:    []float64{0.95, 0.05},
		build:  buildNetSmall,
		layers: []string{"core.get_ns", "core.set_ns", "core.self_share", "netkv.self_us_per_batch", "netkv.self_share"},
	},
	{
		name: "net-a-always", keyset: "Az1", keys: 200_000, zipfian: true, batch: 64, traceOps: 8_000,
		why:   "netkv on the sharded durable store with WAL sync=always, 50% Get and 50% Set in batches of 64: the commit path and fsync dominate, set-up is recovery",
		mix:   []float64{0.5, 0.5},
		build: buildNetAlways,
		layers: []string{
			"core.get_ns", "core.set_ns", "netkv.self_us_per_batch", "netkv.self_share", "shard.locate_ns",
			"wal.append_p50_us", "wal.fsync_p50_us", "wal.commit_wait_p50_us", "wal.bytes_per_user_byte",
			"wal.recover_s", "wal.snapshot_bytes", "vfs.writes", "vfs.write_bytes", "vfs.syncs",
			"vfs.sync_p50_us", "vfs.sets_per_sync", "vfs.self_share",
		},
	},
	{
		name: "net-a-repl", keyset: "Az1", keys: 200_000, zipfian: true, batch: 64, traceOps: 50_000,
		why:   "as net-a-always but sync=none with one follower tailing the WAL: append CPU and shard dispatch without fsync hiding them, and replication lag",
		mix:   []float64{0.5, 0.5},
		build: buildNetRepl,
		layers: []string{
			"core.get_ns", "core.set_ns", "netkv.self_us_per_batch", "netkv.self_share", "shard.locate_ns",
			"wal.append_p50_us", "wal.bytes_per_user_byte", "vfs.writes", "vfs.write_bytes",
		},
	},
}

func lookupSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

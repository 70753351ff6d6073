// Package index defines the common interface the benchmark harness, the
// networked KV store and the integration tests use to drive Wormhole and
// every baseline the paper compares against (§4): B+ tree, skip list, ART,
// Masstree and the Cuckoo hash table.
//
// Wormhole's core (*core.Wormhole, with *core.Reader as its read handle)
// and the sharded store (*shard.Store) implement these interfaces
// directly; internal/adapters wraps the baselines and registers them all
// by name.
package index

// Index is the point-operation surface shared by all seven index builds.
type Index interface {
	// Get returns the value stored under key.
	Get(key []byte) ([]byte, bool)
	// Set inserts or replaces key. The key and value are copied, so the
	// caller may reuse its buffers as soon as Set returns.
	Set(key, val []byte)
	// Del removes key, reporting whether it was present.
	Del(key []byte) bool
	// Count returns the number of keys.
	Count() int64
	// Footprint returns the approximate heap bytes held by the index
	// structure, including key/value bytes (Figure 16's accounting).
	Footprint() int64
}

// Ordered is implemented by the ordered indexes (everything but Cuckoo).
type Ordered interface {
	Index
	// Scan visits keys >= start ascending until fn returns false. A nil
	// start scans from the smallest key. The key fn receives is valid
	// only until fn returns (Wormhole assembles it in a reused buffer);
	// a caller that keeps it copies it. The value stays valid.
	Scan(start []byte, fn func(key, val []byte) bool)
}

// OrderedDesc is implemented by ordered indexes that can also scan
// downward (Wormhole and the sharded store).
type OrderedDesc interface {
	Ordered
	// ScanDesc visits keys <= start descending until fn returns false. A
	// nil start scans from the largest key.
	ScanDesc(start []byte, fn func(key, val []byte) bool)
}

// Batcher is implemented by partitioned stores (internal/shard) that
// execute operations grouped by shard. Batches amortize routing and
// per-shard synchronization and let callers — notably the netkv server's
// per-shard worker pool — run disjoint shards concurrently. Slices are
// positional: result i answers keys[i], whatever shard it landed in.
type Batcher interface {
	Index
	// NumShards returns the number of independent partitions.
	NumShards() int
	// ShardOf returns the partition that owns key.
	ShardOf(key []byte) int
	// GetBatch looks up keys grouped by shard.
	GetBatch(keys [][]byte) (vals [][]byte, found []bool)
	// SetBatch inserts or replaces keys[i] -> vals[i] grouped by shard;
	// duplicate keys within a batch apply in batch order.
	SetBatch(keys, vals [][]byte)
	// DelBatch removes keys grouped by shard, reporting presence per key.
	DelBatch(keys [][]byte) []bool
}

// ReadHandle is an amortized read session. A handle claims whatever
// per-reader synchronization state the index needs (for Wormhole, one
// QSBR slot) once, and reuses it for every Get, so a long-lived goroutine
// — a server connection, a benchmark worker — pays the acquisition once
// instead of per operation. A handle must not be used concurrently; Close
// releases its state.
type ReadHandle interface {
	Get(key []byte) ([]byte, bool)
	Close()
}

// ScanHandle is a ReadHandle that can also serve ordered scans through
// its amortized per-reader state (Wormhole's lock-free scan path on a
// pinned slot). The netkv server serves range operations through the
// connection's handle when it supports this.
type ScanHandle interface {
	ReadHandle
	// Scan visits keys >= start ascending until fn returns false. As
	// with Ordered.Scan, a key is valid only until fn returns.
	Scan(start []byte, fn func(key, val []byte) bool)
	// ScanDesc visits keys <= start descending until fn returns false,
	// under the same key lifetime.
	ScanDesc(start []byte, fn func(key, val []byte) bool)
}

// BatchHandle is a ReadHandle that can answer several point lookups in
// one call through its amortized per-reader state — for Wormhole, one
// reader announcement for the whole batch and the memory-parallel
// pipelined lookup. Slices are positional: vals[i], found[i] answer
// keys[i], and the call must be equivalent to len(keys) sequential Gets.
// The returned slices may be the handle's own scratch, valid until its
// next GetBatch.
// The netkv server routes runs of consecutive point reads through the
// connection's or worker's handle when it supports this.
type BatchHandle interface {
	ReadHandle
	GetBatch(keys [][]byte) (vals [][]byte, found []bool)
}

// WriteHandle is a ReadHandle that can also mutate without waiting for
// durability. SetNoWait and DelNoWait apply and log the write, which is
// visible when they return, and hand back a token; the store's Commit
// then waits once for a whole batch. The netkv server routes a batch's
// writes through the worker's or connection's handle when it supports
// this and the index is a Committer.
type WriteHandle interface {
	ReadHandle
	SetNoWait(key, val []byte) (token uint64)
	DelNoWait(key []byte) (found bool, token uint64)
}

// Committer is implemented by partitioned stores whose WriteHandle tokens
// can be committed as a batch.
type Committer interface {
	// Commit returns once every write whose token on shard i is at most
	// tokens[i] is durable per the store's policy; tokens[i] is the
	// largest token a WriteHandle returned for a key of shard i (0 when
	// the batch did not write shard i).
	Commit(tokens []uint64)
}

// Durable is implemented by stores with a persistence lifecycle (the
// durable sharded store). Volatile indexes simply don't implement it.
type Durable interface {
	// Flush forces every logged mutation to stable storage, regardless of
	// the store's sync policy.
	Flush() error
	// Snapshot writes a key-ordered snapshot and truncates the log.
	Snapshot() error
	// Close flushes and stops logging; in-memory reads may continue.
	Close() error
}

// ReadPinner is implemented by indexes whose readers can amortize
// per-operation synchronization across a session (Wormhole's pinned QSBR
// readers). Callers that hold a goroutine for many operations should
// prefer a handle; others fall back to plain Get.
type ReadPinner interface {
	NewReadHandle() ReadHandle
}

// Info describes one registered index implementation.
type Info struct {
	Name string
	// ThreadSafe indexes accept concurrent mutations (Wormhole, Masstree).
	// The others are evaluated read-only multi-threaded or single-writer,
	// exactly as the paper does for skip list, B+ tree and ART.
	ThreadSafe bool
	// RangeScan reports Ordered support (false only for Cuckoo; the
	// paper's ART build also lacks one, but ours provides it).
	RangeScan bool
	New       func() Index
}

var registry []Info

// Register adds an implementation; every registration lives in the init
// function of internal/adapters, which importers link for its side
// effects.
func Register(info Info) { registry = append(registry, info) }

// All returns every registered implementation in registration order.
func All() []Info { return append([]Info(nil), registry...) }

// Lookup finds a registered implementation by name.
func Lookup(name string) (Info, bool) {
	for _, in := range registry {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

package wormhole

import (
	"time"

	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// SyncPolicy selects when a durable store forces logged mutations to
// stable storage.
type SyncPolicy int

const (
	// SyncNone never fsyncs on the write path; the OS flushes at its
	// leisure. Fastest; a power failure loses everything since the last
	// Flush or Snapshot (a clean Close loses nothing).
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every SyncInterval,
	// bounding loss to one interval.
	SyncInterval
	// SyncAlways fsyncs before Set/Del return; concurrent writers share
	// one fsync (group commit). Every acknowledged operation survives.
	SyncAlways
)

// DurableConfig tunes a durable store opened with Open. The zero value
// selects one shard per available CPU (capped at 16), uniform boundaries,
// and SyncNone.
type DurableConfig struct {
	// Shards is the number of partitions. Ignored when dir already holds a
	// store: the persisted MANIFEST pins the partitioning, since routing
	// must be byte-identical across restarts.
	Shards int
	// Sample optionally supplies keys representative of the workload for
	// quantile boundaries; ignored on reopen, like Shards.
	Sample [][]byte
	// Sync selects the durability policy (default SyncNone).
	Sync SyncPolicy
	// SyncInterval is the background flush cadence under
	// SyncPolicy(SyncInterval); default 100ms.
	SyncInterval time.Duration
}

// DB is a durable Sharded store: the same ordered point/scan/batch
// surface, plus a persistence lifecycle. Every committed Set and Del is
// appended to a per-shard write-ahead log (group-committed per the
// configured SyncPolicy), and Snapshot writes key-ordered snapshot files
// that truncate the logs. Reopening the same directory recovers the
// newest valid snapshot through the bulkload fast path, then replays the
// WAL tail, stopping cleanly at a torn or corrupt record — after any
// crash, the recovered state is a prefix of the committed operations.
type DB struct {
	Sharded
}

// Open creates or reopens a durable store rooted at dir. Shards recover
// in parallel; Close (or at least Flush) should be called before process
// exit under SyncNone to push buffered records to disk.
func Open(dir string, c DurableConfig) (*DB, error) {
	st, err := shard.Open(shard.Options{
		Shards: c.Shards,
		Sample: c.Sample,
		Dir:    dir,
		Durability: wal.Options{
			Sync:     wal.SyncPolicy(c.Sync),
			Interval: c.SyncInterval,
		},
	})
	if err != nil {
		return nil, err
	}
	return &DB{Sharded{storeView{st}}}, nil
}

// Flush forces every logged mutation to stable storage, regardless of
// the sync policy. Because Set and Del cannot report I/O errors, a
// logging failure (e.g. a full disk) is sticky and surfaces here (and on
// Close): a non-nil error means mutations since that point may not be
// recoverable until a successful Snapshot supersedes the damaged log.
// Durable applications should Flush at their consistency points and
// treat its error as a durability alarm.
func (db *DB) Flush() error { return db.s.Flush() }

// Snapshot writes a key-ordered snapshot of every shard and truncates its
// write-ahead log; recovery cost drops to one bulkload plus whatever tail
// accumulates afterwards. Safe to call while serving traffic.
func (db *DB) Snapshot() error { return db.s.Snapshot() }

// RecoveredPairs reports how many pairs the snapshots restored at Open;
// RecoveredRecords how many WAL records were replayed after them.
func (db *DB) RecoveredPairs() int { return db.s.RecoveredPairs() }

// RecoveredRecords reports the WAL records replayed at Open.
func (db *DB) RecoveredRecords() int { return db.s.RecoveredRecords() }

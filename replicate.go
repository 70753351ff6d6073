package wormhole

import (
	"time"

	"github.com/repro/wormhole/internal/repl"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// FollowerConfig tunes a replication follower started with Replicate.
type FollowerConfig struct {
	// Leader is the leader server's address (a whkv serve -dir process, or
	// any netkv server wired with a replication source).
	Leader string
	// Dir roots the follower's own durable store. Its write-ahead log
	// records both the applied mutations and the applied leader positions,
	// so a restarted follower resumes the leader's tail instead of
	// resyncing. Empty means a volatile follower that resyncs from scratch
	// on every start.
	Dir string
	// Sync selects the follower store's durability policy (default
	// SyncNone: the follower can always re-fetch from the leader, so
	// paying per-record fsyncs buys little).
	Sync SyncPolicy
	// SyncInterval is the background flush cadence under
	// SyncPolicy(SyncInterval); default 100ms.
	SyncInterval time.Duration
	// AckInterval is how often applied positions are reported to the
	// leader (its lag observability; default 100ms).
	AckInterval time.Duration
	// AutoPromote arms leader-loss failover: when no leader contact
	// happens for HeartbeatTimeout, the follower promotes itself, bumping
	// the replication epoch past any it has observed so the old leader is
	// fenced on first contact with the new lineage.
	AutoPromote bool
	// HeartbeatTimeout is the leader silence that triggers auto-promotion
	// (default 2s; the leader heartbeats idle streams every 200ms).
	HeartbeatTimeout time.Duration
	// OnPromote, when non-nil, runs after an automatic promotion with the
	// newly-writable DB. Manual Promote calls do not invoke it.
	OnPromote func(*DB)
	// Logf, when non-nil, receives connection lifecycle messages
	// (disconnects, reconnect attempts).
	Logf func(format string, args ...any)
}

// ReplPosition identifies a point in the leader's per-shard record
// stream: Seq records of WAL generation Gen have been applied.
type ReplPosition struct {
	Gen uint64
	Seq uint64
}

// Follower is a read-only replica of a leader's store, kept converging by
// asynchronous WAL shipping: the leader streams each shard's write-ahead
// log from the follower's applied position (or a key-ordered snapshot of
// the shard when the position is unreachable — garbage-collected, or
// beyond a crashed leader's surviving history), and the follower applies
// records idempotently through the normal mutation path — so the
// lock-free read and scan paths below serve traffic the whole time,
// trailing the leader by a bounded tail. On the tail-replay path reads
// are per-shard prefix consistent: each shard's state is some prefix of
// the leader's commit order for that shard. During a snapshot catch-up
// that guarantee is suspended for the affected shard — the merge passes
// through mixed states (new values landed, stale keys not yet deleted)
// until it completes.
//
// Writes belong on the leader; Promote detaches the follower and hands
// the caller a writable store.
type Follower struct {
	storeView
	f *repl.Follower
}

// Replicate connects a follower to a leader and starts streaming in the
// background. A fresh follower learns the leader's shard boundaries from
// the handshake; one restarted from an existing Dir resumes from its
// durable positions. The connection is maintained with reconnect-and-
// backoff until Promote or Close; Replicate itself fails fast when the
// leader is unreachable or incompatible.
func Replicate(c FollowerConfig) (*Follower, error) {
	o := repl.Options{
		Leader: c.Leader,
		Dir:    c.Dir,
		Durability: wal.Options{
			Sync:     wal.SyncPolicy(c.Sync),
			Interval: c.SyncInterval,
		},
		AckInterval:      c.AckInterval,
		AutoPromote:      c.AutoPromote,
		HeartbeatTimeout: c.HeartbeatTimeout,
		Logf:             c.Logf,
	}
	if c.OnPromote != nil {
		cb := c.OnPromote
		o.OnPromote = func(s *shard.Store) { cb(&DB{Sharded{storeView{s}}}) }
	}
	f, err := repl.Start(o)
	if err != nil {
		return nil, err
	}
	return &Follower{storeView{f.Store()}, f}, nil
}

// Applied returns the per-shard leader positions the follower has applied
// up to.
func (f *Follower) Applied() []ReplPosition {
	ps := f.f.Applied()
	out := make([]ReplPosition, len(ps))
	for i, p := range ps {
		out[i] = ReplPosition{Gen: p.Gen, Seq: p.Seq}
	}
	return out
}

// Lag returns the records between the leader's last-known end and the
// applied positions, summed over shards. known is false while the
// distance spans a WAL generation rotation (uncountable from positions)
// or before the first heartbeat.
func (f *Follower) Lag() (records int64, known bool) { return f.f.Lag() }

// Connected reports whether a stream to the leader is currently live.
func (f *Follower) Connected() bool { return f.f.Connected() }

// Epoch returns the replication epoch of the follower's own store. It
// grows only on promotion: a follower created at epoch e keeps it until
// Promote (manual or automatic) bumps past every epoch it has observed.
func (f *Follower) Epoch() uint64 { return f.s.Epoch() }

// FencedBy returns the epoch that fenced this store, or zero while
// unfenced. A non-zero value means a higher-epoch leader exists and this
// store refuses writes until it resyncs into that lineage.
func (f *Follower) FencedBy() uint64 { return f.s.FencedBy() }

// SnapshotsApplied returns how many shard snapshot catch-ups have run
// (zero when every byte arrived by tail replay).
func (f *Follower) SnapshotsApplied() int64 { return f.f.SnapshotsApplied() }

// CatchingUp returns the shards with a snapshot catch-up in progress:
// their reads pass through mixed states until the merge completes. After
// Promote it reports shards whose merge was abandoned half-finished —
// they may retain keys the leader had deleted.
func (f *Follower) CatchingUp() []int { return f.f.CatchingUp() }

// Promote detaches the follower from its leader and returns its store as
// a writable DB: clean promotion to standalone. The replication loop is
// fully stopped before Promote returns; the DB keeps every applied record
// and, when the follower had a Dir, its durability lifecycle (the caller
// now owns Close). Promoting mid snapshot catch-up abandons that merge:
// check CatchingUp afterwards — affected shards may retain keys the
// leader had deleted. Promotion bumps the store's replication epoch past
// every epoch observed from the leader, so the old leader is fenced on
// first contact with the new lineage. Returns nil after Close; repeated
// calls return the same store — at most one call bumps the epoch.
func (f *Follower) Promote() *DB {
	s := f.f.Promote()
	if s == nil {
		return nil
	}
	return &DB{Sharded{storeView{s}}}
}

// Close stops replication and closes the follower store (unless Promote
// transferred ownership). Idempotent.
func (f *Follower) Close() error { return f.f.Close() }

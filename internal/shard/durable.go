package shard

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// Durable sharded stores. Open gives every shard its own WAL+snapshot
// pair under dir/shard-NNN and recovers all of them in parallel — shard
// keyspaces are disjoint, so per-shard logs need no cross-shard ordering,
// and recovery time divides by the shard count. A MANIFEST file pins the
// partitioner boundaries: routing must be byte-identical across restarts
// or previously stored keys would become unreachable in their new shard.

// manifest is the durable partitioning and leadership contract. The
// partitioning half is written once at creation; the epoch half is
// rewritten (atomically, through the same temp+rename path) on every
// promotion, fence, and lineage adoption. The epoch fields are additive —
// a PR-5-era manifest without them reads as epoch 1, unfenced.
type manifest struct {
	Version int      `json:"version"`
	Shards  int      `json:"shards"`
	Bounds  []string `json:"bounds"` // base64, strictly ascending

	Epoch    uint64       `json:"epoch,omitempty"`
	FencedBy uint64       `json:"fenced_by,omitempty"`
	Epochs   []EpochEntry `json:"epochs,omitempty"`
}

// manifestEpochs bundles the epoch half of the manifest for writers.
type manifestEpochs struct {
	Epoch    uint64
	FencedBy uint64
	History  []EpochEntry
}

const manifestName = "MANIFEST"

func writeManifest(fsys vfs.FS, dir string, p *Partitioner, e manifestEpochs) error {
	m := manifest{Version: 1, Shards: p.NumShards(),
		Epoch: e.Epoch, FencedBy: e.FencedBy, Epochs: e.History}
	for _, b := range p.Bounds() {
		m.Bounds = append(m.Bounds, base64.StdEncoding.EncodeToString(b))
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	// The manifest pins routing for the store's whole life; it must be
	// durable before any shard data is, or a crash between the two would
	// silently re-derive different boundaries on reopen and orphan every
	// key already written. The same atomicity makes an epoch bump
	// all-or-nothing: a crash mid-promotion recovers either the old or
	// the new lineage, never a half-written one.
	return wal.WriteFileAtomicFS(fsys, filepath.Join(dir, manifestName), append(buf, '\n'))
}

func readManifest(fsys vfs.FS, dir string) (*Partitioner, manifestEpochs, error) {
	var none manifestEpochs
	buf, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, none, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, none, fmt.Errorf("shard: corrupt MANIFEST: %w", err)
	}
	if m.Version != 1 {
		return nil, none, fmt.Errorf("shard: MANIFEST version %d not supported", m.Version)
	}
	bounds := make([][]byte, 0, len(m.Bounds))
	for _, s := range m.Bounds {
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, none, fmt.Errorf("shard: corrupt MANIFEST boundary: %w", err)
		}
		bounds = append(bounds, b)
	}
	p := NewExplicit(bounds)
	if p.NumShards() != m.Shards {
		return nil, none, fmt.Errorf("shard: MANIFEST shard count %d does not match %d boundaries",
			m.Shards, len(bounds))
	}
	e := manifestEpochs{Epoch: m.Epoch, FencedBy: m.FencedBy, History: m.Epochs}
	if e.Epoch == 0 {
		e.Epoch = 1
	}
	if len(e.History) == 0 {
		e.History = []EpochEntry{{Epoch: e.Epoch}}
	}
	return p, e, nil
}

// Open creates or reopens a durable store in o.Dir. On a fresh directory
// the partitioner is built exactly as New builds it (Partitioner, Sample
// or uniform) and persisted; on reopen the persisted boundaries win and
// o.Shards/o.Sample/o.Partitioner are ignored — the on-disk keyspace
// already committed to a routing. Each shard recovers independently and
// concurrently: newest valid snapshot bulk-loaded, WAL tail replayed.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("shard: Open requires Options.Dir")
	}
	fsys := vfs.OrOS(o.Durability.FS)
	if err := fsys.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	epochs := manifestEpochs{Epoch: 1, History: []EpochEntry{{Epoch: 1}}}
	p, recovered, err := readManifest(fsys, o.Dir)
	switch {
	case err == nil:
		o.Partitioner = p
		epochs = recovered
	case os.IsNotExist(err):
		// Fresh directory: derive the partitioning as New would, then pin it.
		if o.Shards <= 0 {
			o.Shards = defaultShards()
		}
		if o.Partitioner == nil {
			if len(o.Sample) > 0 {
				o.Partitioner = FromSample(o.Shards, o.Sample)
			} else {
				o.Partitioner = NewUniform(o.Shards)
			}
		}
		if err := writeManifest(fsys, o.Dir, o.Partitioner, epochs); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	dir := o.Dir
	s := New(o)
	s.dir = dir
	s.fs = fsys
	s.syncAlways = o.Durability.Sync == wal.SyncAlways
	s.epoch = epochs.Epoch
	s.history = epochs.History
	s.fencedBy = epochs.FencedBy
	s.fenced.Store(epochs.FencedBy != 0)
	s.wals = make([]*wal.Store, len(s.shards))
	var wg sync.WaitGroup
	errs := make([]error, len(s.shards))
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shardDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
			st, err := wal.Open(shardDir, s.shards[i], o.Durability)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			s.wals[i] = st
			s.shards[i].SetMutationHook(st)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Release whatever opened before reporting failure.
		for _, st := range s.wals {
			if st != nil {
				st.Close()
			}
		}
		return nil, err
	}
	return s, nil
}

// Durable reports whether the store persists mutations (created by Open
// rather than New).
func (s *Store) Durable() bool { return len(s.wals) > 0 }

// WAL returns shard i's write-ahead log store, or nil on a volatile store.
// Replication streams each shard's WAL independently through it.
func (s *Store) WAL(i int) *wal.Store {
	if len(s.wals) == 0 {
		return nil
	}
	return s.wals[i]
}

// WALBytes returns the summed framed length of every shard's active WAL
// generation (zero for volatile stores) — the OpStat observability figure.
func (s *Store) WALBytes() int64 {
	var n int64
	for _, st := range s.wals {
		n += st.WALSize()
	}
	return n
}

// Gens returns each shard's active WAL generation (nil for volatile
// stores).
func (s *Store) Gens() []uint64 {
	if len(s.wals) == 0 {
		return nil
	}
	gens := make([]uint64, len(s.wals))
	for i, st := range s.wals {
		gens[i] = st.ActiveGen()
	}
	return gens
}

// RecoveredPairs returns how many pairs the per-shard snapshots restored
// at Open; RecoveredRecords how many WAL records were replayed after
// them. Zero for volatile stores.
func (s *Store) RecoveredPairs() int {
	n := 0
	for _, st := range s.wals {
		n += st.RecoveredPairs()
	}
	return n
}

// RecoveredRecords returns the total WAL records replayed at Open.
func (s *Store) RecoveredRecords() int {
	n := 0
	for _, st := range s.wals {
		n += st.RecoveredRecords()
	}
	return n
}

// RecoveredSegments returns the total snapshot segments decoded at Open
// across all shards (0 when no shard had a snapshot, or for volatile
// stores). Combined with the per-shard open fan-out, it is
// the recovery parallelism actually available: segments × shards decode
// units.
func (s *Store) RecoveredSegments() int {
	n := 0
	for _, st := range s.wals {
		n += st.RecoveredSegments()
	}
	return n
}

// Flush forces every shard's logged mutations to stable storage,
// regardless of the sync policy, fanning the fsyncs out across shards so
// a barrier costs the slowest shard's sync, not the sum. A no-op on
// volatile stores.
func (s *Store) Flush() error {
	if len(s.wals) == 0 {
		return nil
	}
	errs := make([]error, len(s.wals))
	var wg sync.WaitGroup
	for i, st := range s.wals {
		wg.Add(1)
		go func(i int, st *wal.Store) {
			defer wg.Done()
			errs[i] = st.Flush()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Snapshot writes a key-ordered snapshot of every shard and truncates its
// WAL, in parallel across shards. A no-op on volatile stores.
func (s *Store) Snapshot() error {
	if len(s.wals) == 0 {
		return nil
	}
	errs := make([]error, len(s.wals))
	var wg sync.WaitGroup
	for i, st := range s.wals {
		wg.Add(1)
		go func(i int, st *wal.Store) {
			defer wg.Done()
			errs[i] = st.Snapshot()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WriteErr reports whether key's owning shard can accept a new logged
// mutation: nil on volatile or healthy stores, the shard's sticky WAL
// error when it is in degraded read-only mode. The server consults it
// BEFORE applying a write, so a mutation that could not be logged is
// refused outright (StatusDegraded) instead of silently diverging the
// in-memory index from its recoverable history. One atomic load on the
// healthy path.
func (s *Store) WriteErr(key []byte) error {
	if len(s.wals) == 0 {
		return nil
	}
	st := s.wals[s.part.Locate(key)]
	if !st.Degraded() {
		return nil
	}
	if err := st.Err(); err != nil {
		return err
	}
	// Healed between the two loads: accept the write.
	return nil
}

// Degraded reports whether any shard is in degraded read-only mode.
func (s *Store) Degraded() bool {
	for _, st := range s.wals {
		if st.Degraded() {
			return true
		}
	}
	return false
}

// Health returns each shard's degradation status (nil for volatile
// stores) — the OpStat health surface.
func (s *Store) Health() []wal.Health {
	if len(s.wals) == 0 {
		return nil
	}
	out := make([]wal.Health, len(s.wals))
	for i, st := range s.wals {
		out[i] = st.Health()
	}
	return out
}

// Close flushes and closes every shard's WAL. In-flight reads and scans
// of the in-memory index are unaffected and may complete after Close;
// mutations issued after Close still apply in memory but are no longer
// logged. Idempotent; a no-op on volatile stores.
func (s *Store) Close() error {
	var errs []error
	for _, st := range s.wals {
		if err := st.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

func TestDurableOpenWriteReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable() {
		t.Fatal("Open returned a volatile store")
	}
	model := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v := fmt.Sprintf("val-%d", i)
		s.Set([]byte(k), []byte(v))
		model[k] = v
	}
	for i := 0; i < 2000; i += 7 {
		k := fmt.Sprintf("key-%05d", i)
		s.Del([]byte(k))
		delete(model, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if int(s2.Count()) != len(model) {
		t.Fatalf("recovered %d keys, want %d", s2.Count(), len(model))
	}
	for k, v := range model {
		got, ok := s2.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("recovered Get(%s) = %q,%v want %q", k, got, ok, v)
		}
	}
	// Order must survive too: a full scan is globally sorted.
	var prev []byte
	n := 0
	s2.Scan(nil, func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("recovered scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("recovered scan visited %d keys, want %d", n, len(model))
	}
}

func TestDurableManifestPinsPartitioning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("alpha"), []byte("\x10mid"), []byte("\xf0high")}
	for _, k := range keys {
		s.Set(k, k)
	}
	routes := make([]int, len(keys))
	for i, k := range keys {
		routes[i] = s.ShardOf(k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen asking for a different shard count and a sample: the MANIFEST
	// must win, keeping every key reachable in its original shard.
	s2, err := Open(Options{Dir: dir, Shards: 2, Sample: keys})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumShards() != 5 {
		t.Fatalf("reopen changed shard count to %d, want 5", s2.NumShards())
	}
	for i, k := range keys {
		if got := s2.ShardOf(k); got != routes[i] {
			t.Fatalf("key %q rerouted from shard %d to %d", k, routes[i], got)
		}
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("key %q unreachable after reopen", k)
		}
	}
}

func TestDurableCorruptManifestFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open succeeded with a corrupt MANIFEST; silent repartitioning would orphan keys")
	}
}

func TestDurableSnapshotAndBatchedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 3, Durability: wal.Options{Sync: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	var keys, vals [][]byte
	for i := 0; i < 1500; i++ {
		keys = append(keys, []byte(fmt.Sprintf("b%05d", i)))
		vals = append(vals, []byte(fmt.Sprintf("v%d", i)))
	}
	s.SetBatch(keys, vals) // batched mutations must be logged too
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.DelBatch(keys[:100]) // post-snapshot WAL tail
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredPairs() != 1500 {
		t.Fatalf("snapshots restored %d pairs, want 1500", s2.RecoveredPairs())
	}
	if s2.RecoveredRecords() != 100 {
		t.Fatalf("WAL tail replayed %d records, want 100", s2.RecoveredRecords())
	}
	if int(s2.Count()) != 1400 {
		t.Fatalf("recovered %d keys, want 1400", s2.Count())
	}
	_, found := s2.GetBatch(keys)
	for i, ok := range found {
		if want := i >= 100; ok != want {
			t.Fatalf("GetBatch[%d] = %v, want %v", i, ok, want)
		}
	}
}

// TestBatchCommitOncePerShard: under SyncAlways, SetBatch and DelBatch
// take one fsync per touched shard per call, and return only once the
// whole batch survives a crash.
func TestBatchCommitOncePerShard(t *testing.T) {
	mem := vfs.NewMemFS()
	mx := wal.NewMetrics(metrics.NewRegistry())
	open := func() *Store {
		s, err := Open(Options{Dir: "/db", Partitioner: NewExplicit([][]byte{[]byte("m")}),
			Durability: wal.Options{Sync: wal.SyncAlways, FS: mem, Metrics: mx, NoSelfHeal: true}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	var keys, vals [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("%c-%02d", "az"[i%2], i)))
		vals = append(vals, []byte(fmt.Sprintf("v%d", i)))
	}
	fsyncs := func(what string, op func()) {
		t.Helper()
		before := mx.Fsyncs.Value()
		op()
		if d := mx.Fsyncs.Value() - before; d == 0 || d > 2 {
			t.Fatalf("%s over 2 shards took %d fsyncs, want 1 or 2", what, d)
		}
	}
	fsyncs("SetBatch(64)", func() { s.SetBatch(keys, vals) })
	fsyncs("DelBatch(16)", func() { s.DelBatch(keys[:16]) })
	mem.Crash()
	s.Close()
	mem.Restart()

	s = open()
	defer s.Close()
	_, found := s.GetBatch(keys)
	for i, ok := range found {
		if want := i >= 16; ok != want {
			t.Fatalf("after crash: key %s present %v, want %v", keys[i], ok, want)
		}
	}
}

// TestCommitFreeWithoutSyncAlways: a store that does not sync every write
// has nothing to commit, and Commit must cost no allocation or goroutine.
func TestCommitFreeWithoutSyncAlways(t *testing.T) {
	s, err := Open(Options{Dir: "/db", Shards: 2,
		Durability: wal.Options{Sync: wal.SyncNone, FS: vfs.NewMemFS()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.NewReader()
	defer r.Close()
	tokens := make([]uint64, s.NumShards())
	for _, k := range []string{"\x01low", "\xf0high"} {
		tokens[s.ShardOf([]byte(k))] = r.SetNoWait([]byte(k), []byte("v"))
	}
	if tokens[0] == 0 || tokens[1] == 0 {
		t.Fatalf("logged writes returned tokens %v, want non-zero", tokens)
	}
	if n := testing.AllocsPerRun(100, func() { s.Commit(tokens) }); n != 0 {
		t.Fatalf("Commit under SyncNone allocated %v times per call", n)
	}
}

func TestVolatileLifecycleNoOps(t *testing.T) {
	s := New(Options{Shards: 2})
	if s.Durable() {
		t.Fatal("New returned a durable store")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

package adapters

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/indextest"
	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"wormhole", "wormhole-sharded", "btree",
		"skiplist", "art", "masstree", "cuckoo",
	}
	for _, name := range want {
		info, ok := index.Lookup(name)
		if !ok {
			t.Fatalf("index %q not registered", name)
		}
		ix := info.New()
		ix.Set([]byte("k"), []byte("v"))
		if v, ok := ix.Get([]byte("k")); !ok || string(v) != "v" {
			t.Fatalf("%s basic op failed", name)
		}
		if info.RangeScan {
			if _, ok := ix.(index.Ordered); !ok {
				t.Fatalf("%s claims RangeScan but is not Ordered", name)
			}
		}
	}
	if len(index.All()) < len(want) {
		t.Fatalf("registry has %d entries, want >= %d", len(index.All()), len(want))
	}
}

// TestRegisteredIndexesCopySet holds every registered index to
// index.Index's ownership rule: Set copies the key and value, so the caller
// may overwrite its buffers as soon as Set returns. Every Set here comes
// from the same two buffers, scribbled over afterwards; Get and Scan must
// still return the original bytes.
func TestRegisteredIndexesCopySet(t *testing.T) {
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("cp-%05d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("va-%05d", i)) }
	for _, info := range index.All() {
		t.Run(info.Name, func(t *testing.T) {
			ix := info.New()
			kb, vb := make([]byte, 8), make([]byte, 8)
			for i := 0; i < n; i++ {
				copy(kb, key(i))
				copy(vb, val(i))
				ix.Set(kb, vb)
				copy(kb, "XXXXXXXX")
				copy(vb, "YYYYYYYY")
			}
			for i := 0; i < n; i++ {
				if v, ok := ix.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("Get(%s) = %q, %v after the caller reused its buffers", key(i), v, ok)
				}
			}
			o, ok := ix.(index.Ordered)
			if !ok {
				return
			}
			i := 0
			o.Scan(nil, func(k, v []byte) bool {
				if !bytes.Equal(k, key(i)) || !bytes.Equal(v, val(i)) {
					t.Fatalf("Scan item %d = %q=%q, want %q=%q", i, k, v, key(i), val(i))
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("Scan visited %d keys, want %d", i, n)
			}
		})
	}
}

// TestAllIndexesAgree drives the same operation stream through every
// registered index and a reference model; any divergence in point results,
// counts, or (for ordered indexes) full scans fails.
func TestAllIndexesAgree(t *testing.T) {
	type run struct {
		name string
		ix   index.Index
	}
	var runs []run
	for _, info := range index.All() {
		runs = append(runs, run{info.Name, info.New()})
	}
	model := map[string]string{}
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("ag-%04d", r.Intn(1500))
		switch r.Intn(4) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			model[k] = v
			for _, ru := range runs {
				ru.ix.Set([]byte(k), []byte(v))
			}
		case 2:
			_, want := model[k]
			delete(model, k)
			for _, ru := range runs {
				if got := ru.ix.Del([]byte(k)); got != want {
					t.Fatalf("step %d: %s Del(%s)=%v want %v", i, ru.name, k, got, want)
				}
			}
		case 3:
			mv, mok := model[k]
			for _, ru := range runs {
				v, ok := ru.ix.Get([]byte(k))
				if ok != mok || (ok && string(v) != mv) {
					t.Fatalf("step %d: %s Get(%s)=%q,%v want %q,%v",
						i, ru.name, k, v, ok, mv, mok)
				}
			}
		}
	}
	for _, ru := range runs {
		if int(ru.ix.Count()) != len(model) {
			t.Fatalf("%s Count=%d want %d", ru.name, ru.ix.Count(), len(model))
		}
		ord, ok := ru.ix.(index.Ordered)
		if !ok {
			continue
		}
		var prev []byte
		n := 0
		ord.Scan(nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("%s scan out of order", ru.name)
			}
			prev = append(prev[:0], k...)
			if model[string(k)] != string(v) {
				t.Fatalf("%s scan value mismatch at %s", ru.name, k)
			}
			n++
			return true
		})
		if n != len(model) {
			t.Fatalf("%s scan found %d keys, want %d", ru.name, n, len(model))
		}
	}
}

// TestAllOrderedAgreeOnPaperKeysets runs real Table 1 keysets (small scale)
// through every ordered index and cross-checks random range windows.
func TestAllOrderedAgreeOnPaperKeysets(t *testing.T) {
	for _, ksName := range []string{"Az1", "Url", "K3"} {
		t.Run(ksName, func(t *testing.T) {
			spec, _ := keyset.Lookup(ksName)
			keys := spec.Gen(3000, 5)
			var ordered []index.Ordered
			var names []string
			for _, info := range index.All() {
				if !info.RangeScan {
					continue
				}
				ix := info.New()
				for _, k := range keys {
					ix.Set(k, k)
				}
				ordered = append(ordered, ix.(index.Ordered))
				names = append(names, info.Name)
			}
			r := rand.New(rand.NewSource(9))
			for probe := 0; probe < 50; probe++ {
				start := keys[r.Intn(len(keys))]
				var ref []string
				ordered[0].Scan(start, func(k, v []byte) bool {
					ref = append(ref, string(k))
					return len(ref) < 25
				})
				for oi := 1; oi < len(ordered); oi++ {
					var got []string
					ordered[oi].Scan(start, func(k, v []byte) bool {
						got = append(got, string(k))
						return len(got) < 25
					})
					if len(got) != len(ref) {
						t.Fatalf("%s window size %d, %s has %d",
							names[oi], len(got), names[0], len(ref))
					}
					for j := range got {
						if got[j] != ref[j] {
							t.Fatalf("%s window[%d]=%s, %s has %s",
								names[oi], j, got[j], names[0], ref[j])
						}
					}
				}
			}
		})
	}
}

func TestFootprintsPlausible(t *testing.T) {
	keys := indextestKeys(2000)
	var raw int64
	for _, k := range keys {
		raw += int64(len(k)) * 2 // key + value (value aliases key here)
	}
	for _, info := range index.All() {
		ix := info.New()
		for _, k := range keys {
			ix.Set(k, k)
		}
		fp := ix.Footprint()
		if fp < raw/2 {
			t.Errorf("%s Footprint %d < half the raw data %d", info.Name, fp, raw)
		}
		if fp > raw*64 {
			t.Errorf("%s Footprint %d implausibly large (raw %d)", info.Name, fp, raw)
		}
	}
}

func indextestKeys(n int) [][]byte {
	r := rand.New(rand.NewSource(33))
	keys := make([][]byte, 0, n)
	seen := map[string]bool{}
	for len(keys) < n {
		k := indextest.GenPrefixed(r)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	return keys
}

// TestConcurrentAllBackends runs the concurrent model-based harness over
// every registered backend. Thread-safe indexes take the raw concurrent
// stream — under -race this doubles as a data-race probe of their
// internals — while the single-writer baselines run behind
// indextest.Synchronized, so the same harness (goroutine structure,
// exactly-once oracle verification, scan observer) covers the whole
// registry.
// TestBatchGetEquivalenceAllBackends runs the batched-read equivalence
// oracle over every registered backend: GetBatch must be byte-identical
// to sequential scalar Gets for batches containing duplicates, misses,
// empty keys, and more keys than a leaf holds (200 > the 128-key
// default leaf capacity). Every adapter must expose GetBatch — a missing
// method fails the test rather than skipping the backend.
func TestBatchGetEquivalenceAllBackends(t *testing.T) {
	for _, info := range index.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			ix, ok := info.New().(interface {
				Get([]byte) ([]byte, bool)
				Set(key, val []byte)
				Del([]byte) bool
				GetBatch(keys [][]byte) ([][]byte, []bool)
			})
			if !ok {
				t.Fatalf("%s does not expose GetBatch", info.Name)
			}
			rounds := 60
			if testing.Short() {
				rounds = 15
			}
			indextest.BatchGetEquivalence(t, ix, 42, rounds, 200, indextest.GenPrefixed)
			indextest.BatchGetEquivalence(t, ix, 43, rounds/2, 64, indextest.GenASCII)
		})
	}
}

// TestRecoveryEquivalenceShardedDurable runs the recovery oracle over
// the sharded durable backend: a store built through a mutation stream
// with a mid-stream snapshot must recover byte-identically whether the
// v2 snapshot segments are decoded serially or by 2 or 8 workers. Tiny
// segments force every shard's snapshot into many segment files, so the
// worker pool actually runs instead of degenerating to one segment per
// shard.
func TestRecoveryEquivalenceShardedDurable(t *testing.T) {
	dir := t.TempDir()
	open := func(workers int) indextest.RecoverableStore {
		st, err := shard.Open(shard.Options{
			Dir:    dir,
			Shards: 3,
			Durability: wal.Options{
				SegmentBytes:  4 << 10,
				DecodeWorkers: workers,
			},
		})
		if err != nil {
			t.Fatalf("open with %d decode workers: %v", workers, err)
		}
		return st
	}
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	indextest.RecoveryEquivalence(t, open, []int{1, 2, 8}, 99, steps, indextest.GenPrefixed)
}

func TestConcurrentAllBackends(t *testing.T) {
	for _, info := range index.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			workers, steps := 4, 800
			if testing.Short() {
				steps = 200
			}
			ix := indextest.MutableIndex(info.New())
			if !info.ThreadSafe {
				ix = indextest.Synchronized(ix)
			}
			indextest.ConcurrentOps(t, ix, 777, workers, steps, indextest.GenASCII)
		})
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/testsupport"
)

// batchConfigs enumerates the leaf shapes GetBatch is checked on: the
// paper's 128-key leaves, and tiny leaves whose many anchors give the
// LPM searches and child probes more to resolve.
func batchConfigs() map[string]Options {
	return map[string]Options{"full": DefaultOptions(), "smallleaf": smallOpts()}
}

// batchTestKeys builds a keyset with shared prefixes, an empty key, keys
// that are proper prefixes of others (consumed at an internal item), and
// a cluster under a prefix longer than maxEagerPrefix, whose anchors make
// long lookups take the slow lane. batchShapes checks that its lookups
// take every resolution shape.
func batchTestKeys(n int) [][]byte {
	r := rand.New(rand.NewSource(7))
	keys := [][]byte{{}}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			k := []byte(fmt.Sprintf("shared/prefix/deep/%06d", i))
			keys = append(keys, k, k[:len(k)-1-i%7])
		case 1:
			keys = append(keys, []byte(fmt.Sprintf("k%d", r.Intn(n))))
		case 2:
			keys = append(keys, bytes.Repeat([]byte{byte('a' + i%3)}, 1+i%90)) // some > maxEagerPrefix
		default:
			b := make([]byte, 3+r.Intn(8))
			r.Read(b)
			keys = append(keys, b)
		}
	}
	long := bytes.Repeat([]byte{'L'}, maxEagerPrefix+6)
	for i := 0; i < n/8; i++ {
		keys = append(keys, fmt.Appendf(bytes.Clone(long), "%05d", i))
	}
	return keys
}

// batchShapes counts how the lookups of keys resolve on w: where the LPM
// search ends (lpmTarget), the scalar lane of keys past the eager CRC
// array, and misses.
func batchShapes(w *Wormhole, keys [][]byte) map[string]int {
	t := w.cur.Load()
	shapes := map[string]int{}
	for _, k := range keys {
		if min(len(k), t.maxLen) > maxEagerPrefix {
			shapes["slow lane"]++
		}
		if _, ok := w.Get(k); !ok {
			shapes["miss"]++
		}
		node, _ := w.searchLPM(t, k)
		l, _, right := lpmTarget(k, node)
		switch {
		case node.isLeafItem():
			shapes["leaf item"]++
		case l == node.leftmost:
			shapes["consumed"]++
		case l != nil:
			shapes["consumed, prev"]++
		case right:
			shapes["right sibling"]++
		default:
			shapes["left sibling"]++
		}
	}
	return shapes
}

// TestGetBatchEquivalence checks, for every leaf shape and interleave
// depth, that GetBatch is byte-identical to sequential scalar Gets over
// batches with duplicates, misses, the empty key, and long keys, both
// through the index and through a pinned Reader, with and without an
// idxs subset. The keyset's lookups take every resolution shape, and
// every key goes through the pipeline at every depth.
func TestGetBatchEquivalence(t *testing.T) {
	for name, o := range batchConfigs() {
		t.Run(name, func(t *testing.T) {
			w := New(o)
			keys := batchTestKeys(4000)
			for i, k := range keys {
				if i%3 != 2 { // leave a third of the keys missing
					w.Set(k, []byte(fmt.Sprintf("v-%x", k)))
				}
			}
			shapes := batchShapes(w, keys)
			for _, shape := range []string{"leaf item", "left sibling", "right sibling",
				"consumed", "consumed, prev", "slow lane", "miss"} {
				if shapes[shape] == 0 {
					t.Errorf("no lookup takes shape %q: %v", shape, shapes)
				}
			}
			r := rand.New(rand.NewSource(11))
			rd := w.NewReader()
			defer rd.Close()
			for _, depth := range []int32{1, 2, defaultBatchDepth, maxBatchLanes} {
				w.batchDepth.Store(depth)
				for lo := 0; lo < len(keys); lo += 64 {
					batch := keys[lo:min(lo+64, len(keys))]
					vals := make([][]byte, len(batch))
					found := make([]bool, len(batch))
					rd.GetBatchInto(batch, vals, found, nil)
					for i, k := range batch {
						sv, sok := w.Get(k)
						if found[i] != sok || !bytes.Equal(vals[i], sv) {
							t.Fatalf("depth %d: GetBatch(%q) = %q,%v; Get = %q,%v",
								depth, k, vals[i], found[i], sv, sok)
						}
					}
				}
				for trial := 0; trial < 20; trial++ {
					n := 1 + r.Intn(300) // up to well past a 128-key leaf
					batch := make([][]byte, n)
					for i := range batch {
						if i > 0 && r.Intn(6) == 0 {
							batch[i] = batch[r.Intn(i)]
						} else {
							batch[i] = keys[r.Intn(len(keys))]
						}
					}
					vals := make([][]byte, n)
					found := make([]bool, n)
					w.GetBatchInto(batch, vals, found, nil)
					for i, k := range batch {
						sv, sok := w.Get(k)
						if found[i] != sok || !bytes.Equal(vals[i], sv) {
							t.Fatalf("depth %d: GetBatch[%d](%q) = %q,%v; Get = %q,%v",
								depth, i, k, vals[i], found[i], sv, sok)
						}
					}
					// Reader path, through an idxs subset covering every
					// other position.
					var idxs []int
					for i := 0; i < n; i += 2 {
						idxs = append(idxs, i)
					}
					vals2 := make([][]byte, n)
					found2 := make([]bool, n)
					rd.GetBatchInto(batch, vals2, found2, idxs)
					for _, i := range idxs {
						if found2[i] != found[i] || !bytes.Equal(vals2[i], vals[i]) {
							t.Fatalf("depth %d: Reader.GetBatch[%d] = %q,%v; want %q,%v",
								depth, i, vals2[i], found2[i], vals[i], found[i])
						}
					}
					for i := 1; i < n; i += 2 {
						if vals2[i] != nil || found2[i] {
							t.Fatalf("depth %d: GetBatch wrote outside idxs at %d", depth, i)
						}
					}
				}
			}
		})
	}
}

// plantDecoy puts decoy in slot 0 of h's bucket with h's tag, moving the
// slot's item to the next free slot, so a tag-only probe of h (getTagOnly)
// returns the decoy: a false-positive tag, which real tables produce about
// once in 10^4 probes. The table is the published one; the test does no
// writes after planting.
func plantDecoy(t *metaTable, h uint32, decoy *metaNode) {
	b := &t.buckets[h&t.mask]
	old := b.nodes[0]
	b.nodes[0], b.tags[0] = decoy, metaTag(h)
	if old != nil {
		t.insert(hashKey(old.key), old)
	}
}

// TestGetBatchTagFalsePositives plants false-positive tags where the
// pipeline trusts a tag before certifying it — an LPM probe, with a decoy
// key of another length and of the same length, and a child probe on
// either side — and checks that GetBatch still answers as Get does,
// sending no lane to the scalar path.
func TestGetBatchTagFalsePositives(t *testing.T) {
	w := New(DefaultOptions())
	keys := batchTestKeys(2000)
	for i, k := range keys {
		if i%3 != 2 {
			w.Set(k, []byte(fmt.Sprintf("v-%x", k)))
		}
	}
	tb := w.cur.Load()
	var lookups [][]byte
	planted := map[string]bool{}
	for _, k := range keys {
		maxl := min(len(k), tb.maxLen)
		if maxl > maxEagerPrefix || maxl < 2 {
			continue
		}
		node, h := w.searchLPM(tb, k)
		l, tok, right := lpmTarget(k, node)
		if l == nil && !planted[fmt.Sprint("child ", right)] {
			// A decoy in front of the child item.
			child := tb.getChild(h, node.key, tok)
			plantDecoy(tb, hashExtendByte(h, tok), &metaNode{key: []byte("decoy"), leaf: childLeaf(child, right)})
			planted[fmt.Sprint("child ", right)] = true
			lookups = append(lookups, k)
			continue
		}
		// A decoy at the first probe of the LPM search, when that prefix
		// is absent: another length, then the same.
		pl := (maxl + 1) / 2
		if pl <= len(node.key) {
			continue
		}
		for _, same := range []bool{false, true} {
			if planted[fmt.Sprint("probe ", same)] {
				continue
			}
			dk := []byte("decoy")
			if same {
				dk = bytes.Repeat([]byte{0xff}, pl)
			}
			plantDecoy(tb, hashKey(k[:pl]), &metaNode{key: dk, leaf: node.leftmost})
			planted[fmt.Sprint("probe ", same)] = true
			lookups = append(lookups, k)
			break
		}
		if len(planted) == 4 {
			break
		}
	}
	if len(planted) != 4 {
		t.Fatalf("planted %v, want all four decoys", planted)
	}
	for _, depth := range []int32{1, defaultBatchDepth} {
		w.batchDepth.Store(depth)
		vals := make([][]byte, len(lookups))
		found := make([]bool, len(lookups))
		s := w.q.Enter()
		scalar := w.getBatchOnline(s, lookups, vals, found, nil)
		w.q.Leave(s)
		if scalar != 0 {
			t.Errorf("depth %d: %d lanes went to the scalar path, want 0", depth, scalar)
		}
		for i, k := range lookups {
			if sv, sok := w.Get(k); found[i] != sok || !bytes.Equal(vals[i], sv) {
				t.Errorf("depth %d: GetBatch(%q) = %q,%v; Get = %q,%v", depth, k, vals[i], found[i], sv, sok)
			}
		}
	}
}

// TestGetBatchQuiescentNoFallback checks that the pipeline itself answers
// a batch on an index no writer touches: Az1-shaped batches, hits and
// misses, send no lane to the scalar getOnline, and keys longer than the
// eager CRC array send exactly their own count.
func TestGetBatchQuiescentNoFallback(t *testing.T) {
	w := New(DefaultOptions())
	keys := keyset.GenAz1(50000, 42)
	present := map[string]bool{}
	for _, k := range keys {
		w.Set(k, k)
		present[string(k)] = true
	}
	var long [][]byte
	prefix := bytes.Repeat([]byte{'L'}, maxEagerPrefix+6)
	for i := 0; i < 1000; i++ {
		k := fmt.Appendf(bytes.Clone(prefix), "%05d", i)
		w.Set(k, k)
		long = append(long, k, fmt.Appendf(bytes.Clone(prefix), "%05d-miss", i))
	}
	var misses [][]byte
	for _, k := range keyset.GenAz1(5000, 43) {
		if !present[string(k)] {
			misses = append(misses, k)
		}
	}
	r := rand.New(rand.NewSource(3))
	batch := make([][]byte, 64)
	vals := make([][]byte, len(batch))
	found := make([]bool, len(batch))
	for round := 0; round < 200; round++ {
		want := 0
		for i := range batch {
			switch {
			case round%2 == 1 && r.Intn(8) == 0:
				batch[i] = long[r.Intn(len(long))]
				want++
			case r.Intn(4) == 0:
				batch[i] = misses[r.Intn(len(misses))]
			default:
				batch[i] = keys[r.Intn(len(keys))]
			}
		}
		s := w.q.Enter()
		scalar := w.getBatchOnline(s, batch, vals, found, nil)
		w.q.Leave(s)
		if scalar != want {
			t.Fatalf("round %d: %d lanes went to the scalar path, want %d", round, scalar, want)
		}
		for i, k := range batch {
			if v, ok := w.Get(k); found[i] != ok || !bytes.Equal(vals[i], v) {
				t.Fatalf("round %d: GetBatch(%q) = %q,%v; Get = %q,%v", round, k, vals[i], found[i], v, ok)
			}
		}
	}
}

// TestGetBatchZeroAllocs guards the pipeline scratch: a batched lookup
// through a pinned Reader or the index with caller-provided result slices
// must not allocate, at any depth.
func TestGetBatchZeroAllocs(t *testing.T) {
	w := New(DefaultOptions())
	var keys [][]byte
	for i := 0; i < 50000; i++ {
		k := []byte(fmt.Sprintf("az-%09d-shared-suffix", i*7))
		keys = append(keys, k)
		w.Set(k, k)
	}
	batch := make([][]byte, 64)
	vals := make([][]byte, len(batch))
	found := make([]bool, len(batch))
	r := w.NewReader()
	defer r.Close()
	miss := []byte("az-miss-000000000")
	for _, depth := range []int32{defaultBatchDepth, maxBatchLanes} {
		w.batchDepth.Store(depth)
		i := 0
		if n, win := testsupport.Mallocs(500, testsupport.PoolAllocs(500), func() {
			for j := range batch {
				batch[j] = keys[(i*2654435761+j*40503)%len(keys)]
			}
			batch[3] = miss // a guaranteed miss per batch
			r.GetBatchInto(batch, vals, found, nil)
			i++
		}); n > testsupport.PoolAllocs(500) {
			t.Errorf("depth %d: Reader.GetBatch: %d allocs over 500 batches, want <= %d (%s)", depth, n, testsupport.PoolAllocs(500), win)
		}
		i = 0
		if n, win := testsupport.Mallocs(500, testsupport.PoolAllocs(500), func() {
			w.GetBatchInto(batch, vals, found, nil)
			i++
		}); n > testsupport.PoolAllocs(500) {
			t.Errorf("depth %d: Wormhole.GetBatch: %d allocs over 500 batches, want <= %d (%s)", depth, n, testsupport.PoolAllocs(500), win)
		}
	}
}

// TestGetBatchUnderChurn hammers the pipelined batch path while writers
// overwrite values in place and force splits and merges around the
// hammered keys — the seqlock brackets, version checks, and scalar
// fallbacks of every lane race real mutations. Every found value must
// reparse as a generation of its key (see overwriteValue). Run with
// -race.
func TestGetBatchUnderChurn(t *testing.T) {
	w := New(smallOpts())
	const hammered = 64
	hotKey := func(i int) []byte { return []byte(fmt.Sprintf("hot-%03d", i)) }
	for i := 0; i < hammered; i++ {
		w.Set(hotKey(i), overwriteValue(0))
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for n := 1; !stop.Load(); n++ {
				w.Set(hotKey(r.Intn(hammered)), overwriteValue(n))
			}
		}(g)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		r := rand.New(rand.NewSource(99))
		for !stop.Load() {
			k := []byte(fmt.Sprintf("hot-%03d-churn-%04d", r.Intn(hammered), r.Intn(500)))
			if r.Intn(2) == 0 {
				w.Set(k, []byte("c"))
			} else {
				w.Del(k)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(1000 + g)))
			rd := w.NewReader()
			defer rd.Close()
			batch := make([][]byte, 24)
			vals := make([][]byte, len(batch))
			found := make([]bool, len(batch))
			for round := 0; round < 600; round++ {
				w.batchDepth.Store([]int32{1, 4, defaultBatchDepth, maxBatchLanes}[round%4])
				for i := range batch {
					if i > 0 && r.Intn(8) == 0 {
						batch[i] = batch[r.Intn(i)]
					} else {
						batch[i] = hotKey(r.Intn(hammered))
					}
				}
				rd.GetBatchInto(batch, vals, found, nil)
				for i := range batch {
					if !found[i] {
						t.Errorf("hammered key %s missing", batch[i])
						return
					}
					checkOverwriteValue(t, batch[i], vals[i])
				}
			}
		}(g)
	}
	readers.Add(1)
	go func() { // cold-miss batches against churned keys
		defer readers.Done()
		r := rand.New(rand.NewSource(5))
		batch := make([][]byte, 16)
		vals := make([][]byte, len(batch))
		found := make([]bool, len(batch))
		for round := 0; round < 600; round++ {
			for i := range batch {
				batch[i] = []byte(fmt.Sprintf("hot-%03d-churn-%04d", r.Intn(hammered), r.Intn(500)))
			}
			w.GetBatchInto(batch, vals, found, nil)
			for i := range batch {
				if found[i] && string(vals[i]) != "c" {
					t.Errorf("churn key %s = %q, want %q", batch[i], vals[i], "c")
					return
				}
			}
		}
	}()
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

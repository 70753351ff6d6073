package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/repro/wormhole/internal/indextest"
)

// collect gathers copies of up to limit keys, with their values, from one
// scan.
func collect(scan func([]byte, func(k, v []byte) bool), start []byte, limit int) (keys, vals [][]byte) {
	scan(start, func(k, v []byte) bool {
		keys = append(keys, bytes.Clone(k))
		vals = append(vals, v)
		return len(keys) < limit
	})
	return keys, vals
}

func sampleFrom(gen func(*rand.Rand) []byte, n int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = gen(r)
	}
	return keys
}

// TestIndextestSuite drives the shared model-based harness through the
// sharded store across shard counts, partitioner flavors and key regimes.
func TestIndextestSuite(t *testing.T) {
	gens := []struct {
		name string
		gen  func(*rand.Rand) []byte
	}{
		{"binary", indextest.GenBinary},
		{"ascii", indextest.GenASCII},
		{"prefixed", indextest.GenPrefixed},
		{"random8", indextest.GenRandom(8)},
	}
	for _, shards := range []int{1, 3, 8} {
		for _, sampled := range []bool{false, true} {
			for _, g := range gens {
				label := fmt.Sprintf("shards=%d/sampled=%v/%s", shards, sampled, g.name)
				t.Run(label, func(t *testing.T) {
					o := Options{Shards: shards}
					if sampled {
						o.Sample = sampleFrom(g.gen, 4096, 7)
					}
					indextest.OrderedOps(t, New(o), 11, 4000, g.gen)
				})
			}
		}
	}
}

func TestBatchOps(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := New(Options{Shards: shards, Sample: sampleFrom(indextest.GenPrefixed, 4096, 3)})
			indextest.BatchOps(t, st, 5, 300, 64, indextest.GenPrefixed)
		})
	}
}

// TestBatchOpsParallelPath forces batches past the fan-out threshold so
// the concurrent per-shard dispatch is exercised, not just the small-batch
// sequential path.
func TestBatchOpsParallelPath(t *testing.T) {
	st := New(Options{Shards: 8, Sample: sampleFrom(indextest.GenRandom(8), 4096, 9)})
	indextest.BatchOps(t, st, 17, 60, 4*parallelBatch, indextest.GenRandom(8))
}

// TestGetBatchResultOrdering is the regression test for per-shard fan-out
// reassembly: results must land at the caller's original positions even
// when shard groups complete out of order. The batch interleaves keys
// round-robin across all shards (adjacent positions live on different
// shards), exceeds the parallel fan-out threshold so groups really run on
// concurrent goroutines, and skews the group sizes so shards finish at
// different times; every value encodes its key, so any transposition is
// caught positionally. Both the store path (parallel fan-out) and the
// pinned Reader path (sequential groups) are checked, plus a batch with
// duplicates and misses.
func TestGetBatchResultOrdering(t *testing.T) {
	st := New(Options{Shards: 8, Sample: sampleFrom(indextest.GenRandom(8), 4096, 21)})
	perShard := make([][][]byte, st.NumShards())
	r := rand.New(rand.NewSource(77))
	for len(perShard[0]) < 2*parallelBatch {
		k := indextest.GenRandom(8)(r)
		sh := st.ShardOf(k)
		// Skew: high shards keep only a fraction of their keys, so their
		// groups are small and finish long before shard 0's.
		if sh > 0 && len(perShard[sh]) > 2*parallelBatch/(1+sh) {
			continue
		}
		perShard[sh] = append(perShard[sh], k)
		st.Set(k, append([]byte("val-of-"), k...))
	}
	var batch [][]byte
	for i := 0; ; i++ {
		added := false
		for sh := range perShard {
			if i < len(perShard[sh]) {
				batch = append(batch, perShard[sh][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	if len(batch) <= parallelBatch {
		t.Fatalf("batch of %d does not reach the parallel fan-out threshold %d", len(batch), parallelBatch)
	}
	check := func(name string, vals [][]byte, found []bool) {
		t.Helper()
		if len(vals) != len(batch) || len(found) != len(batch) {
			t.Fatalf("%s: got %d/%d results for %d keys", name, len(vals), len(found), len(batch))
		}
		for i, k := range batch {
			want := append([]byte("val-of-"), k...)
			if !found[i] || !bytes.Equal(vals[i], want) {
				t.Fatalf("%s: result %d = %q,%v, want %q — fan-out reassembled out of order",
					name, i, vals[i], found[i], want)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		vals, found := st.GetBatch(batch)
		check("store", vals, found)
	}
	rd := st.NewReader()
	defer rd.Close()
	vals, found := rd.GetBatch(batch)
	check("reader", vals, found)

	// Duplicates and misses keep their positions too.
	mixed := [][]byte{batch[3], []byte("missing-key"), batch[3], batch[500], []byte{}, batch[3]}
	vals, found = st.GetBatch(mixed)
	for _, i := range []int{0, 2, 5} {
		if !found[i] || !bytes.Equal(vals[i], append([]byte("val-of-"), batch[3]...)) {
			t.Fatalf("duplicate at %d = %q,%v", i, vals[i], found[i])
		}
	}
	if found[1] || found[4] || vals[1] != nil || vals[4] != nil {
		t.Fatalf("missing keys reported present: %q,%v / %q,%v", vals[1], found[1], vals[4], found[4])
	}
	if !found[3] || !bytes.Equal(vals[3], append([]byte("val-of-"), batch[500]...)) {
		t.Fatalf("result 3 = %q,%v", vals[3], found[3])
	}
}

// TestCrossShardScanOrdering loads keys that straddle every boundary and
// verifies that stitched scans yield the exact global order, including
// scans that start precisely on, just below and just above a boundary.
// TestReaderGetBatchScratch drives one Reader through batches of changing
// size: a warm reader answers from its kept result slices, a batch larger
// than maxKeptBatch from one-off ones, and no call sees a value or a
// grouping left over from an earlier one.
func TestReaderGetBatchScratch(t *testing.T) {
	st := New(Options{Shards: 4})
	key := func(i int) []byte { return []byte(fmt.Sprintf("scratch-%05d", i)) }
	const n = maxKeptBatch + 500
	for i := 0; i < n; i++ {
		st.Set(key(i), append([]byte("v-"), key(i)...))
	}
	rd := st.NewReader()
	defer rd.Close()
	check := func(keys [][]byte, present func(i int) bool) {
		t.Helper()
		vals, found := rd.GetBatch(keys)
		if len(vals) != len(keys) || len(found) != len(keys) {
			t.Fatalf("%d keys: %d/%d results", len(keys), len(vals), len(found))
		}
		for i, k := range keys {
			want := append([]byte("v-"), k...)
			if present(i) != found[i] || (found[i] && !bytes.Equal(vals[i], want)) || (!found[i] && vals[i] != nil) {
				t.Fatalf("%d keys: result %d for %q = %q,%v", len(keys), i, k, vals[i], found[i])
			}
		}
	}
	all := make([][]byte, n)
	for i := range all {
		all[i] = key(i)
	}
	every := func(int) bool { return true }
	check(all[:100], every)
	check(all, every)
	misses := make([][]byte, 100)
	for i := range misses {
		misses[i] = key(n + i)
		if i%3 == 0 {
			misses[i] = all[i*7]
		}
	}
	check(misses, func(i int) bool { return i%3 == 0 })
	check(all[n-64:], every)
}

func TestCrossShardScanOrdering(t *testing.T) {
	keys := sampleFrom(indextest.GenPrefixed, 6000, 21)
	st := New(Options{Shards: 6, Sample: keys})

	sorted := make([]string, 0, len(keys))
	seen := map[string]bool{}
	for _, k := range keys {
		if !seen[string(k)] {
			seen[string(k)] = true
			sorted = append(sorted, string(k))
		}
	}
	sort.Strings(sorted)
	r := rand.New(rand.NewSource(22))
	for _, i := range r.Perm(len(keys)) {
		st.Set(keys[i], keys[i])
	}

	nonEmpty := 0
	for _, n := range st.ShardCounts() {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d non-empty shards; scan never crosses a boundary", nonEmpty)
	}

	check := func(start []byte) {
		t.Helper()
		want := sorted
		if start != nil {
			at := sort.SearchStrings(sorted, string(start))
			want = sorted[at:]
		}
		i := 0
		var prev []byte
		st.Scan(start, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("scan(%q) out of order: %q then %q", start, prev, k)
			}
			prev = append(prev[:0], k...)
			if i >= len(want) || string(k) != want[i] {
				t.Fatalf("scan(%q)[%d] = %q, want %q", start, i, k, want[i])
			}
			if !bytes.Equal(k, v) {
				t.Fatalf("scan(%q): value mismatch at %q", start, k)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("scan(%q) visited %d keys, want %d", start, i, len(want))
		}
	}

	check(nil)
	for _, b := range st.part.Bounds() {
		check(b)
		if b[len(b)-1] > 0 {
			below := append([]byte(nil), b...)
			below[len(below)-1]--
			check(below)
		}
		check(append(append([]byte(nil), b...), 0))
	}
	for i := 0; i < 20; i++ {
		check(keys[r.Intn(len(keys))])
	}
}

// TestConcurrentBatchedStress hammers the store with concurrent batched
// writers, batched readers, deleters and scanners. Every value equals its
// key, so readers can validate any snapshot they observe; run under
// -race this doubles as the data-race check for the fan-out paths.
func TestConcurrentBatchedStress(t *testing.T) {
	const space = 4096
	key := func(i int) []byte { return []byte(fmt.Sprintf("stress-%05d", i)) }
	sample := make([][]byte, space)
	for i := range sample {
		sample[i] = key(i)
	}
	st := New(Options{Shards: 4, Sample: sample})

	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // batched writers
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for round := 0; round < rounds; round++ {
				batch := make([][]byte, 512)
				for i := range batch {
					batch[i] = key(r.Intn(space))
				}
				st.SetBatch(batch, batch)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // batched deleters
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + w)))
			for round := 0; round < rounds; round++ {
				batch := make([][]byte, 256)
				for i := range batch {
					batch[i] = key(r.Intn(space))
				}
				st.DelBatch(batch)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // batched readers
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(300 + w)))
			for round := 0; round < rounds; round++ {
				batch := make([][]byte, 512)
				for i := range batch {
					batch[i] = key(r.Intn(space))
				}
				vals, found := st.GetBatch(batch)
				for i := range batch {
					if found[i] && !bytes.Equal(vals[i], batch[i]) {
						t.Errorf("GetBatch(%q) = %q", batch[i], vals[i])
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // scanners crossing shard boundaries mid-mutation
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var prev []byte
				st.Scan(nil, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("concurrent scan out of order: %q then %q", prev, k)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
			}
		}()
	}
	wg.Wait()

	// Settle: one final batched write of the whole space, then verify.
	all := make([][]byte, space)
	for i := range all {
		all[i] = key(i)
	}
	st.SetBatch(all, all)
	if got := st.Count(); got != space {
		t.Fatalf("Count = %d after settling, want %d", got, space)
	}
	vals, found := st.GetBatch(all)
	for i := range all {
		if !found[i] || !bytes.Equal(vals[i], all[i]) {
			t.Fatalf("settled GetBatch(%q) = %q,%v", all[i], vals[i], found[i])
		}
	}
}

func TestZeroOptionsDefaults(t *testing.T) {
	st := New(Options{})
	if st.NumShards() != defaultShards() {
		t.Fatalf("NumShards = %d, want defaultShards() = %d", st.NumShards(), defaultShards())
	}
	st.Set([]byte("k"), []byte("v"))
	if v, ok := st.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if st.Footprint() <= 0 {
		t.Fatalf("Footprint = %d", st.Footprint())
	}
	if st.Stats().Keys != 1 {
		t.Fatalf("Stats().Keys = %d", st.Stats().Keys)
	}
}

// TestCrossShardScanDescAndRanges mirrors the ascending ordering test for
// the descending direction and for bounded windows: a descending scan must
// stitch shards in reverse partition order with global key order
// preserved across every boundary, and windows collected in either
// direction must agree with the sorted key set.
func TestCrossShardScanDescAndRanges(t *testing.T) {
	keys := sampleFrom(indextest.GenPrefixed, 5000, 31)
	st := New(Options{Shards: 5, Sample: keys})
	sorted := make([]string, 0, len(keys))
	seen := map[string]bool{}
	for _, k := range keys {
		if !seen[string(k)] {
			seen[string(k)] = true
			sorted = append(sorted, string(k))
		}
	}
	sort.Strings(sorted)
	for _, k := range keys {
		st.Set(k, k)
	}
	nonEmpty := 0
	for _, n := range st.ShardCounts() {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d non-empty shards; desc scan never crosses a boundary", nonEmpty)
	}

	checkDesc := func(start []byte) {
		t.Helper()
		want := sorted
		if start != nil {
			at := sort.SearchStrings(sorted, string(start))
			if at < len(sorted) && sorted[at] == string(start) {
				at++
			}
			want = sorted[:at]
		}
		i := len(want) - 1
		st.ScanDesc(start, func(k, v []byte) bool {
			if i < 0 || string(k) != want[i] {
				t.Fatalf("desc scan(%q) = %q, want %q", start, k, want[i])
			}
			if !bytes.Equal(k, v) {
				t.Fatalf("desc scan(%q): value mismatch at %q", start, k)
			}
			i--
			return true
		})
		if i != -1 {
			t.Fatalf("desc scan(%q) stopped %d keys early", start, i+1)
		}
	}
	checkDesc(nil)
	for _, b := range st.part.Bounds() {
		checkDesc(b)
		checkDesc(append(append([]byte(nil), b...), 0))
	}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 15; i++ {
		checkDesc(keys[r.Intn(len(keys))])
	}

	ka, _ := collect(st.Scan, []byte(sorted[10]), 25)
	if len(ka) != 25 || string(ka[0]) != sorted[10] || string(ka[24]) != sorted[34] {
		t.Fatalf("RangeAsc misaligned: got %d keys, first %q", len(ka), ka[0])
	}
	kd, vd := collect(st.ScanDesc, []byte(sorted[100]), 30)
	if len(kd) != 30 || string(kd[0]) != sorted[100] || string(kd[29]) != sorted[71] {
		t.Fatalf("RangeDesc misaligned: got %d keys, first %q", len(kd), kd[0])
	}
	for i := range kd {
		if !bytes.Equal(kd[i], vd[i]) {
			t.Fatalf("RangeDesc value mismatch at %q", kd[i])
		}
	}
}

// TestReaderScans drives both scan directions through the pinned
// per-shard read handles and checks they agree with the store's own scans
// while writers churn other shards' keys.
func TestReaderScans(t *testing.T) {
	keys := sampleFrom(indextest.GenASCII, 4000, 41)
	st := New(Options{Shards: 4, Sample: keys})
	unique := map[string]bool{}
	for _, k := range keys {
		unique[string(k)] = true
		st.Set(k, k)
	}
	stable := len(unique)
	rd := st.NewReader()
	defer rd.Close()
	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		r := rand.New(rand.NewSource(42))
		for {
			select {
			case <-done:
				return
			default:
			}
			k := []byte(fmt.Sprintf("churn-%05d", r.Intn(2000)))
			if r.Intn(2) == 0 {
				st.Set(k, k)
			} else {
				st.Del(k)
			}
		}
	}()
	for round := 0; round < 20; round++ {
		var prev []byte
		n := 0
		rd.Scan(nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("reader scan out of order: %q then %q", prev, k)
				return false
			}
			prev = append(prev[:0], k...)
			n++
			return true
		})
		if n < stable {
			t.Errorf("reader scan round %d saw only %d keys, want >= %d", round, n, stable)
		}
		prev = nil
		n = 0
		rd.ScanDesc(nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) <= 0 {
				t.Errorf("reader desc scan out of order: %q then %q", prev, k)
				return false
			}
			prev = append(prev[:0], k...)
			n++
			return true
		})
		if n < stable {
			t.Errorf("reader desc scan round %d saw only %d keys, want >= %d", round, n, stable)
		}
	}
	close(done)
	stop.Wait()
}

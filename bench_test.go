// Root-level benchmarks: the paper's evaluation (§4), one testing.B family
// per table and figure, plus two extensions (BenchmarkShardSweep and
// BenchmarkFailover). This file is the harness for every figure:
//
//	go test -run '^$' -bench . .                          # everything, benchKeys scale
//	go test -run '^$' -bench Fig10 -cpu 1,2,4 -count 5 .  # one figure, three thread counts, five repeats
//	go test -short -run '^$' -bench . -benchtime 1x .     # every cell once at smoke scale
//
// Scale is the benchKeys constant (smokeKeys under -short). The parallel
// families run one goroutine per GOMAXPROCS, so -cpu sets their threads;
// -benchtime and -count set duration and repeats. Figure 11 has no family
// of its own: each rung is Fig10's btree and wormhole rows built with the
// docs/ablations patches applied. Absolute numbers depend on the host; the
// paper's shapes (ordering of indexes, rough ratios, crossovers) are the
// reproduction target. How fast the store is end to end is the separate
// benchmark/ module's question.
package wormhole_test

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/adapters"
	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/repl"
	"github.com/repro/wormhole/internal/shard"
)

const (
	benchKeys = 100_000 // base keys per keyset
	smokeKeys = 5_000   // the same under -short
	benchSeed = 42
)

// keysetNames is Table 1's order, the columns of every per-keyset figure.
var keysetNames = []string{"Az1", "Az2", "Url", "K3", "K4", "K6", "K8", "K10"}

// keysetSize is Table 1's scaling rule for n base keys: K8's 256-byte and
// K10's 1 KB keys come n/4 and n/16 at a time, so every keyset holds
// comparable bytes, and no keyset falls below 1,000 keys.
func keysetSize(name string, n int) int {
	switch name {
	case "K8":
		n /= 4
	case "K10":
		n /= 16
	}
	return max(n, 1000)
}

func baseKeys() int {
	if testing.Short() {
		return smokeKeys
	}
	return benchKeys
}

var keysetCache = map[string][][]byte{}

func loadKeyset(name string) [][]byte {
	if ks, ok := keysetCache[name]; ok {
		return ks
	}
	spec, _ := keyset.Lookup(name)
	ks := spec.Gen(keysetSize(name, baseKeys()), benchSeed)
	keysetCache[name] = ks
	return ks
}

// buildIndex loads keys into a fresh registered index (value = key, as the
// paper's index-only evaluation does).
func buildIndex(name string, keys [][]byte) index.Index {
	info, _ := index.Lookup(name)
	ix := info.New()
	for _, k := range keys {
		ix.Set(k, k)
	}
	return ix
}

// lastIndex holds one read-only index at a time: a cell's sub-benchmark
// runs several times with growing b.N, and cells run one after another.
var lastIndex struct {
	id string
	ix index.Index
}

func cachedIndex(id string, build func() index.Index) index.Index {
	if lastIndex.id != id {
		lastIndex.ix = nil // let the old index go before building the next
		lastIndex.id, lastIndex.ix = id, build()
	}
	return lastIndex.ix
}

func loadIndex(name, ks string) index.Index {
	return cachedIndex(name+"/"+ks, func() index.Index { return buildIndex(name, loadKeyset(ks)) })
}

// benchLookups runs uniform random lookups of loaded keys on every
// parallel goroutine (the Figs. 9, 10, 13 and 14 workload).
func benchLookups(b *testing.B, ix index.Index, keys [][]byte) {
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := ix.Get(keys[rand.IntN(len(keys))]); !ok {
				b.Error("loaded key missing")
				return
			}
		}
	})
}

// benchMixed is Figure 17's workload on an index holding the first half of
// keys: pct percent of operations insert from the second half (wrapping
// around as updates once it is spent), the rest look up loaded keys.
func benchMixed(b *testing.B, ix index.Index, keys [][]byte, pct int) {
	half := len(keys) / 2
	pool := keys[half:]
	var cursor atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if rand.IntN(100) < pct {
				k := pool[int(cursor.Add(1)-1)%len(pool)]
				ix.Set(k, k)
			} else {
				ix.Get(keys[rand.IntN(half)])
			}
		}
	})
}

// BenchmarkTable1_KeysetGen regenerates each Table 1 keyset at the run's
// scale and reports its inventory.
func BenchmarkTable1_KeysetGen(b *testing.B) {
	for _, spec := range keyset.Table1() {
		b.Run(spec.Name, func(b *testing.B) {
			var st keyset.Stats
			for i := 0; i < b.N; i++ {
				st = keyset.Summarize(spec.Gen(keysetSize(spec.Name, baseKeys()), benchSeed))
			}
			b.ReportMetric(float64(st.Keys), "keys")
			b.ReportMetric(st.AvgLen, "avg-key-B")
			b.ReportMetric(float64(st.Bytes)/1e6, "MB")
		})
	}
}

// BenchmarkFig09_LookupParallel is the thread-scaling experiment on Az1:
// sweep goroutines with -cpu 1,2,4,8,16.
func BenchmarkFig09_LookupParallel(b *testing.B) {
	for _, name := range adapters.Baselines() {
		b.Run(name, func(b *testing.B) { benchLookups(b, loadIndex(name, "Az1"), loadKeyset("Az1")) })
	}
}

// BenchmarkFig10_Lookup is the keyset-by-index lookup matrix.
func BenchmarkFig10_Lookup(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) { benchLookups(b, loadIndex(name, ks), loadKeyset(ks)) })
		}
	}
}

// BenchmarkFig12_NetworkedLookup sends the lookups through the netkv
// server over TCP loopback, in batches of netkv.DefaultBatch (the paper's
// 800), one client connection per parallel goroutine.
func BenchmarkFig12_NetworkedLookup(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) {
				keys := loadKeyset(ks)
				srv, err := netkv.Serve("127.0.0.1:0", loadIndex(name, ks))
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					cl, err := netkv.Dial(srv.Addr())
					if err != nil {
						b.Error(err)
						return
					}
					defer cl.Close()
					for pb.Next() {
						cl.QueueGet(keys[rand.IntN(len(keys))])
						if cl.Pending() == netkv.DefaultBatch {
							if _, err := cl.Flush(); err != nil {
								b.Error(err)
								return
							}
						}
					}
					if _, err := cl.Flush(); err != nil {
						b.Error(err)
					}
				})
			})
		}
	}
}

// BenchmarkFig13_VsCuckoo compares ordered Wormhole with the unordered
// Cuckoo hash table on point lookups.
func BenchmarkFig13_VsCuckoo(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range []string{"wormhole", "cuckoo"} {
			b.Run(ks+"/"+name, func(b *testing.B) { benchLookups(b, loadIndex(name, ks), loadKeyset(ks)) })
		}
	}
}

// BenchmarkFig14_AnchorLength sweeps key length from 8 to 512 bytes for
// random (Kshort) and zero-filled (Klong) keys, n/4 keys each: Klong's
// anchors grow with the key, Kshort's stay short.
func BenchmarkFig14_AnchorLength(b *testing.B) {
	n := max(baseKeys()/4, 1000)
	for _, set := range []struct {
		name string
		gen  func(length, n int, seed int64) [][]byte
	}{{"Kshort", keyset.GenKshort}, {"Klong", keyset.GenKlong}} {
		for length := 8; length <= 512; length *= 2 {
			keys := set.gen(length, n, benchSeed)
			for _, name := range []string{"wormhole", "cuckoo"} {
				id := fmt.Sprintf("%s%d/%s", set.name, length, name)
				b.Run(id, func(b *testing.B) {
					benchLookups(b, cachedIndex(id, func() index.Index { return buildIndex(name, keys) }), keys)
				})
			}
		}
	}
}

// BenchmarkFig15_Insert measures single-goroutine insertions into an
// initially empty index.
func BenchmarkFig15_Insert(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) {
				keys := loadKeyset(ks)
				info, _ := index.Lookup(name)
				var ix index.Index
				for i := 0; i < b.N; i++ {
					if i%len(keys) == 0 {
						b.StopTimer()
						ix = info.New() // fresh index per pass over the keyset
						b.StartTimer()
					}
					k := keys[i%len(keys)]
					ix.Set(k, k)
				}
			})
		}
	}
}

// memoryUsage loads keys into a fresh index and returns its analytic
// footprint, the live-heap growth it caused, and the paper's baseline
// sum(len(key) + 8), a key and a pointer per entry (all in bytes).
func memoryUsage(name string, keys [][]byte) (footprint, heapDelta, baseline int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ix := buildIndex(name, keys)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for _, k := range keys {
		baseline += int64(len(k)) + 8
	}
	return ix.Footprint(), int64(m1.HeapAlloc) - int64(m0.HeapAlloc), baseline
}

// BenchmarkFig16_Memory reports memory per key: the index's analytic
// footprint (bytes/key), the live heap it grew by (heap-B/key), and the
// paper's key-plus-pointer baseline (base-B/key).
func BenchmarkFig16_Memory(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) {
				keys := loadKeyset(ks)
				var fp, heap, base int64
				for i := 0; i < b.N; i++ {
					fp, heap, base = memoryUsage(name, keys)
				}
				n := float64(len(keys))
				b.ReportMetric(float64(fp)/n, "bytes/key")
				b.ReportMetric(float64(heap)/n, "heap-B/key")
				b.ReportMetric(float64(base)/n, "base-B/key")
			})
		}
	}
}

// BenchmarkFig17_Mixed runs the mixed lookup/insert workload on the two
// thread-safe ordered indexes at the paper's three insert ratios.
func BenchmarkFig17_Mixed(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range []string{"masstree", "wormhole"} {
			for _, pct := range []int{5, 50, 95} {
				b.Run(fmt.Sprintf("%s/%s/insert%02d", ks, name, pct), func(b *testing.B) {
					keys := loadKeyset(ks)
					benchMixed(b, buildIndex(name, keys[:len(keys)/2]), keys, pct)
				})
			}
		}
	}
}

// BenchmarkFig18_Range measures seek-plus-100-key scans (ops = scans). ART
// is left out as in the paper. One full scan first: Wormhole sorts a
// leaf's unsorted tail on first touch (§3.2), a cost the paper's long
// runs amortize that a short run would mix into steady-state scans.
func BenchmarkFig18_Range(b *testing.B) {
	for _, ks := range keysetNames {
		for _, name := range []string{"skiplist", "btree", "masstree", "wormhole"} {
			b.Run(ks+"/"+name, func(b *testing.B) {
				keys := loadKeyset(ks)
				ix := loadIndex(name, ks).(index.Ordered)
				ix.Scan(nil, func(_, _ []byte) bool { return true })
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						cnt := 0
						ix.Scan(keys[rand.IntN(len(keys))], func(_, _ []byte) bool {
							cnt++
							return cnt < 100
						})
					}
				})
			})
		}
	}
}

// BenchmarkAblation_LeafCap sweeps Wormhole's leaf capacity (the paper
// fixes it at 128) on Az1 lookups, reporting the leaves and MetaTrieHT
// items each capacity yields.
func BenchmarkAblation_LeafCap(b *testing.B) {
	keys := loadKeyset("Az1")
	for leafCap := 16; leafCap <= 512; leafCap *= 2 {
		id := fmt.Sprintf("cap%d", leafCap)
		b.Run(id, func(b *testing.B) {
			ix := cachedIndex(id, func() index.Index {
				o := core.DefaultOptions()
				o.LeafCap = leafCap
				w := core.New(o)
				for _, k := range keys {
					w.Set(k, k)
				}
				return w
			})
			benchLookups(b, ix, keys)
			st := ix.(*core.Wormhole).Stats()
			b.ReportMetric(float64(st.Leaves), "leaves")
			b.ReportMetric(float64(st.MetaItems), "meta-items")
		})
	}
}

// BenchmarkAblation_GracePeriod isolates the §2.5 concurrency machinery:
// splits that must wait out QSBR grace periods under reader load.
func BenchmarkAblation_GracePeriod(b *testing.B) {
	for _, readers := range []int{0, 4} {
		b.Run(fmt.Sprintf("readers%d", readers), func(b *testing.B) {
			ix := buildIndex("wormhole", nil)
			stop := make(chan struct{})
			pin := []byte("pin")
			ix.Set(pin, pin)
			for g := 0; g < readers; g++ {
				go func() {
					for {
						select {
						case <-stop:
							return
						default:
							ix.Get(pin)
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := []byte(fmt.Sprintf("gp-%09d", i))
				ix.Set(k, k)
			}
			b.StopTimer()
			close(stop)
			time.Sleep(time.Millisecond)
		})
	}
}

// BenchmarkShardSweep compares the single-instance Wormhole with the
// range-partitioned sharded store at 2, 4 and 8 shards on Az1 (an
// extension; sweep goroutines with -cpu): point lookups, where Wormhole's
// lock-free readers already scale and sharding must break even; the 50%
// insert mix, where per-shard writer locks pay off; and GetBatch in
// batches of netkv.DefaultBatch (ns/op is per key), which the sharded
// store splits by shard and runs in parallel. The sharded lookup
// rows report the fewest and most keys the sampled anchors put in a shard.
func BenchmarkShardSweep(b *testing.B) {
	keys := loadKeyset("Az1")
	type store struct {
		name  string
		build func(load [][]byte) index.Index
	}
	stores := []store{{"wormhole", func(load [][]byte) index.Index { return buildIndex("wormhole", load) }}}
	for _, n := range []int{2, 4, 8} {
		stores = append(stores, store{fmt.Sprintf("sharded-%d", n), func(load [][]byte) index.Index {
			st := shard.New(shard.Options{Shards: n, Sample: keys})
			st.SetBatch(load, load)
			return st
		}})
	}
	for _, s := range stores {
		loaded := func() index.Index { return cachedIndex("sweep/"+s.name, func() index.Index { return s.build(keys) }) }
		b.Run(s.name+"/lookup", func(b *testing.B) {
			ix := loaded()
			benchLookups(b, ix, keys)
			if st, ok := ix.(*shard.Store); ok {
				counts := st.ShardCounts()
				lo, hi := counts[0], counts[0]
				for _, c := range counts {
					lo, hi = min(lo, c), max(hi, c)
				}
				b.ReportMetric(float64(lo), "min-keys/shard")
				b.ReportMetric(float64(hi), "max-keys/shard")
			}
		})
		b.Run(fmt.Sprintf("%s/getbatch%d", s.name, netkv.DefaultBatch), func(b *testing.B) {
			bx := loaded().(interface {
				GetBatch(keys [][]byte) (vals [][]byte, found []bool)
			})
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batch := make([][]byte, 0, netkv.DefaultBatch)
				for pb.Next() {
					if batch = append(batch, keys[rand.IntN(len(keys))]); len(batch) == cap(batch) {
						bx.GetBatch(batch)
						batch = batch[:0]
					}
				}
				bx.GetBatch(batch)
			})
		})
		b.Run(s.name+"/mixed50", func(b *testing.B) { benchMixed(b, s.build(keys[:len(keys)/2]), keys, 50) })
	}
}

// BenchmarkFailover measures what a leader death costs, end to end (an
// extension), one failover per iteration. A durable sharded leader holds
// Az1 and streams its WAL to one auto-promoting follower (500ms heartbeat
// timeout), both behind netkv, while a failover-aware MultiClient writes
// through the event; then the leader is killed. It reports ms-to-writable
// (kill to the follower's promotion completing: epoch durably bumped, its
// server taking writes), ms-client-gap (the longest pause between two of
// the client's successful writes, which adds the client's own detection
// and rotation) and post-failover Sets per second on the promoted store.
func BenchmarkFailover(b *testing.B) {
	keys := loadKeyset("Az1")
	var writable, gap time.Duration
	var sets float64
	for i := 0; i < b.N; i++ {
		w, g, s := failover(b, keys)
		writable, gap, sets = writable+w, gap+g, sets+s
	}
	n := float64(b.N)
	b.ReportMetric(float64(writable.Milliseconds())/n, "ms-to-writable")
	b.ReportMetric(float64(gap.Milliseconds())/n, "ms-client-gap")
	b.ReportMetric(sets/n, "post-failover-sets/s")
}

func failover(b *testing.B, keys [][]byte) (toWritable, clientGap time.Duration, setsPerSec float64) {
	root := b.TempDir()
	leader, err := shard.Open(shard.Options{Dir: filepath.Join(root, "leader"), Sample: keys})
	if err != nil {
		b.Fatal(err)
	}
	src := repl.NewSource(leader)
	// The read timeout lets the kill complete while a client connection
	// is parked on the server: the handler exits on its own.
	srvL, err := netkv.ServeOpts("127.0.0.1:0", leader, netkv.ServerOptions{
		Subscribe:   src.ServeSubscriber,
		ReadTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	leader.SetBatch(keys, keys)

	// The promotion hook may fire before the follower's server exists:
	// it waits for the server, published through srvP, as whkv serve
	// -follow does.
	promotedAt := make(chan time.Time, 1)
	var srvP atomic.Pointer[netkv.Server]
	srvReady := make(chan struct{})
	f, err := repl.Start(repl.Options{
		Leader:           srvL.Addr(),
		Dir:              filepath.Join(root, "follower"),
		AckInterval:      10 * time.Millisecond,
		BackoffMin:       10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		AutoPromote:      true,
		HeartbeatTimeout: 500 * time.Millisecond,
		OnPromote: func(*shard.Store) {
			<-srvReady
			if s := srvP.Load(); s != nil {
				s.SetReadOnly(false)
			}
			promotedAt <- time.Now()
		},
	})
	if err != nil {
		close(srvReady)
		b.Fatal(err)
	}
	srvF, err := netkv.ServeOpts("127.0.0.1:0", f.Store(), netkv.ServerOptions{
		ReadOnly:    true,
		StatFill:    f.FillStat,
		ReadTimeout: 500 * time.Millisecond,
	})
	srvP.Store(srvF)
	close(srvReady)
	if err != nil {
		b.Fatal(err)
	}
	defer srvF.Close()

	// The writer the failover happens under: one key per Set, budgeted so
	// the promotion gap heals inside one call.
	mc, err := netkv.DialMulti(srvL.Addr(), srvF.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer mc.Close()
	mc.Timeout = 30 * time.Second
	stop := make(chan struct{})
	gapc := make(chan time.Duration, 1)
	go func() {
		var maxGap time.Duration
		last := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				gapc <- maxGap
				return
			default:
			}
			if mc.Set([]byte(fmt.Sprintf("fo-%07d", i)), []byte("failover-val")) != nil {
				continue
			}
			now := time.Now()
			maxGap, last = max(maxGap, now.Sub(last)), now
		}
	}()

	// Warm up, then kill the leader: stream severed, listener gone, store
	// closed, everything a dead process stops doing.
	time.Sleep(500 * time.Millisecond)
	killedAt := time.Now()
	src.Close()
	srvL.Close()
	leader.Close()
	select {
	case at := <-promotedAt:
		toWritable = at.Sub(killedAt)
	case <-time.After(30 * time.Second):
		close(stop)
		<-gapc
		f.Close()
		b.Fatal("auto-promotion never fired")
	}
	// Let the writer land writes on the new leader before reading the gap.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	clientGap = <-gapc

	// The promoted leader at full speed: plain Sets on every key, striped
	// over one goroutine per GOMAXPROCS.
	st := f.Promote() // idempotent: returns the auto-promoted store
	if st == nil {
		f.Close()
		b.Fatal("promoted store unavailable")
	}
	start := time.Now()
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := p; j < len(keys); j += procs {
				st.Set(keys[j], []byte("failover-val"))
			}
		}()
	}
	wg.Wait()
	setsPerSec = float64(len(keys)) / time.Since(start).Seconds()
	if err := f.Close(); err != nil {
		b.Error(err)
	}
	if err := st.Close(); err != nil {
		b.Error(err)
	}
	return toWritable, clientGap, setsPerSec
}

func TestKeysetScaling(t *testing.T) {
	for _, c := range []struct {
		name    string
		n, want int
	}{{"K10", 1500, 1000}, {"K8", 64000, 16000}, {"K10", 64000, 4000}, {"Az1", 64000, 64000}} {
		if got := keysetSize(c.name, c.n); got != c.want {
			t.Errorf("keysetSize(%s, %d) = %d, want %d", c.name, c.n, got, c.want)
		}
	}
}

func TestMemoryUsagePositive(t *testing.T) {
	spec, _ := keyset.Lookup("K3")
	keys := spec.Gen(1500, 7)
	fp, _, base := memoryUsage("btree", keys)
	if fp <= 0 || base != int64(len(keys))*(8+8) {
		t.Fatalf("memoryUsage fp=%d base=%d", fp, base)
	}
}

package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/repro/wormhole/internal/adapters"
	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
)

// KeysetNames is the Table 1 keyset order used by every figure.
var KeysetNames = []string{"Az1", "Az2", "Url", "K3", "K4", "K6", "K8", "K10"}

// Experiments maps experiment ids (table1, fig09..fig18, ablation-*,
// shard-sweep, failover) to their runners, in paper order. Performance
// trajectory questions — read, batch-read, scan, commit, recovery and
// replication cost — belong to the benchmark/ workloads, not here.
func Experiments() []struct {
	ID   string
	Desc string
	Run  func(c *Config)
} {
	return []struct {
		ID   string
		Desc string
		Run  func(c *Config)
	}{
		{"table1", "keyset inventory (Table 1)", Table1},
		{"fig09", "lookup throughput vs thread count, Az1 (Figure 9)", Fig09},
		{"fig10", "lookup throughput per keyset (Figure 10)", Fig10},
		{"fig11", "optimization ablation, one rung per build (Figure 11; docs/ablations)", Fig11},
		{"fig12", "lookup throughput over the networked KV store (Figure 12)", Fig12},
		{"fig13", "Wormhole vs Cuckoo hash lookups (Figure 13)", Fig13},
		{"fig14", "anchor-length sensitivity, Kshort vs Klong (Figure 14)", Fig14},
		{"fig15", "single-thread insertion throughput (Figure 15)", Fig15},
		{"fig16", "memory usage (Figure 16)", Fig16},
		{"fig17", "mixed lookups/insertions, Masstree vs Wormhole (Figure 17)", Fig17},
		{"fig18", "range lookups, 100-key scans (Figure 18)", Fig18},
		{"ablation-leafcap", "leaf capacity sweep (extension)", AblationLeafCap},
		{"shard-sweep", "sharded store: shard count × goroutines scaling (extension)", ShardSweep},
		{"failover", "leader kill → auto-promotion: time to writable, client-observed gap (extension)", Failover},
	}
}

// ShardSweep compares the single-instance Wormhole with the range-
// partitioned sharded store across shard counts and goroutine counts on
// Az1: point lookups (where Wormhole's RCU readers already scale and
// sharding must at least break even), a 50%-insert mixed workload (where
// per-shard meta writer locks and QSBR domains pay off), and batched
// lookups through GetBatch (shard-grouped amortization).
func ShardSweep(c *Config) {
	keys := c.Keyset("Az1")
	points := threadPoints(c.Threads)
	// An explicitly requested count (the -shards flag via Config.Shards)
	// joins the default ladder so it is always measured.
	shardCounts := []int{2, 4, 8}
	if n := c.Shards; n > 0 && n != 2 && n != 4 && n != 8 {
		shardCounts = append(shardCounts, n)
		sort.Ints(shardCounts)
	}
	header := func(title string) {
		c.printf("%s\n%-18s", title, "goroutines")
		for _, t := range points {
			c.printf("%8d", t)
		}
		c.printf("\n")
	}
	buildSharded := func(n int, load [][]byte) *shard.Store {
		st := shard.New(shard.Options{Shards: n, Sample: keys})
		st.SetBatch(load, load) // the store's own parallel loading path
		return st
	}
	printRow := func(label string, cells []float64) {
		c.printf("%-18s", label)
		for _, v := range cells {
			c.printf("%8.2f", v)
		}
		c.printf("\n")
	}

	// Measure the read-only sections one store at a time — only one fully
	// loaded store (plus the unsharded baseline row's) is ever alive, so
	// peak memory stays at one index regardless of the ladder length —
	// and buffer the rows so the output keeps its section layout.
	lookupRows := make([][]float64, len(shardCounts))
	batchedRows := make([][]float64, len(shardCounts))
	var balShards int
	var balLo, balHi int64
	for i, n := range shardCounts {
		st := buildSharded(n, keys)
		if i == len(shardCounts)-1 {
			balShards = st.NumShards()
			balLo, balHi = int64(1<<62), int64(0)
			for _, cnt := range st.ShardCounts() {
				balLo, balHi = min(balLo, cnt), max(balHi, cnt)
			}
		}
		for _, t := range points {
			lookupRows[i] = append(lookupRows[i],
				LookupThroughput(st, keys, t, c.Duration, c.Seed))
		}
		for _, t := range points {
			batchedRows[i] = append(batchedRows[i],
				BatchLookupThroughput(st, keys, c.Batch, t, c.Duration, c.Seed))
		}
	}
	var wormholeRow []float64
	{
		ix := BuildIndex("wormhole", keys)
		for _, t := range points {
			wormholeRow = append(wormholeRow,
				LookupThroughput(ix, keys, t, c.Duration, c.Seed))
		}
	}

	c.printf("Shard sweep: keyset Az1, %d keys\n", len(keys))
	c.printf("sampled-anchor balance at %d shards: min %d, max %d keys/shard\n\n",
		balShards, balLo, balHi)

	header("point lookups (MOPS):")
	printRow("wormhole", wormholeRow)
	for i, n := range shardCounts {
		printRow(fmt.Sprintf("sharded-%d", n), lookupRows[i])
	}

	// The mixed section builds a fresh half-loaded store per cell because
	// its inserts mutate the index.
	header("mixed 50% inserts (MOPS):")
	half := len(keys) / 2
	mixedRow := func(label string, build func() index.Index) {
		c.printf("%-18s", label)
		for _, t := range points {
			c.printf("%8.2f", MixedOnIndex(build(), keys, 50, t, c.Duration, c.Seed))
		}
		c.printf("\n")
	}
	mixedRow("wormhole", func() index.Index { return BuildIndex("wormhole", keys[:half]) })
	for _, n := range shardCounts {
		n := n
		mixedRow(fmt.Sprintf("sharded-%d", n), func() index.Index { return buildSharded(n, keys[:half]) })
	}

	header(fmt.Sprintf("batched lookups via GetBatch, batch %d (MOPS):", c.Batch))
	for i, n := range shardCounts {
		printRow(fmt.Sprintf("sharded-%d", n), batchedRows[i])
	}
}

// Table1 prints the keyset inventory at the configured scale.
func Table1(c *Config) {
	c.printf("Table 1: keysets (scaled to %d base keys, seed %d)\n", c.Keys, c.Seed)
	c.printf("%-6s %10s %10s %12s  %s\n", "name", "keys", "avg len", "MB", "description")
	for _, spec := range keyset.Table1() {
		keys := c.Keyset(spec.Name)
		st := keyset.Summarize(keys)
		c.printf("%-6s %10d %10.1f %12.1f  %s\n",
			spec.Name, st.Keys, st.AvgLen, float64(st.Bytes)/1e6, spec.Description)
	}
}

// Fig09 sweeps thread counts on Az1 for the five indexes, the paper's
// scalability experiment.
func Fig09(c *Config) {
	keys := c.Keyset("Az1")
	names := adapters.Baselines()
	c.printf("Figure 9: lookup throughput (MOPS) vs threads, keyset Az1\n")
	c.printf("%-16s", "threads")
	points := threadPoints(c.Threads)
	for _, t := range points {
		c.printf("%8d", t)
	}
	c.printf("\n")
	for _, name := range names {
		ix := BuildIndex(name, keys)
		c.printf("%-16s", name)
		for _, t := range points {
			mops := LookupThroughput(ix, keys, t, c.Duration, c.Seed)
			c.printf("%8.2f", mops)
		}
		c.printf("\n")
	}
}

// Fig10 measures lookup throughput for every keyset and baseline.
func Fig10(c *Config) {
	c.printf("Figure 10: lookup throughput (MOPS), %d threads\n", c.Threads)
	runMatrix(c, adapters.Baselines(), func(name string, keys [][]byte) float64 {
		ix := BuildIndex(name, keys)
		return LookupThroughput(ix, keys, c.Threads, c.Duration, c.Seed)
	})
}

// Fig11 measures one rung of §3's cumulative optimization ladder against
// the B+ tree baseline: the "wormhole" row is whichever rung this binary
// was built from. The full build is the top rung; the patches under
// docs/ablations rebuild the lower ones, one worktree each.
func Fig11(c *Config) {
	c.printf("Figure 11: optimization ablation, lookup MOPS, %d threads\n", c.Threads)
	names := []string{"btree", "wormhole"}
	runMatrix(c, names, func(name string, keys [][]byte) float64 {
		ix := BuildIndex(name, keys)
		return LookupThroughput(ix, keys, c.Threads, c.Duration, c.Seed)
	})
}

// Fig12 runs the lookup workload through the netkv server over TCP
// loopback with the paper's batch size.
func Fig12(c *Config) {
	c.printf("Figure 12: networked lookup throughput (MOPS), %d client threads, batch %d\n",
		c.Threads, c.Batch)
	runMatrix(c, adapters.Baselines(), func(name string, keys [][]byte) float64 {
		return netLookupThroughput(c, name, keys)
	})
}

func netLookupThroughput(c *Config, name string, keys [][]byte) float64 {
	ix := BuildIndex(name, keys)
	srv, err := netkv.Serve("127.0.0.1:0", ix)
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(c.Duration)
	for t := 0; t < c.Threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			cl, err := netkv.Dial(srv.Addr())
			if err != nil {
				panic(err)
			}
			defer cl.Close()
			r := NewRng(uint64(c.Seed) + uint64(tid)*977)
			ops := int64(0)
			for time.Now().Before(deadline) {
				for i := 0; i < c.Batch; i++ {
					cl.QueueGet(keys[r.Intn(len(keys))])
				}
				if _, err := cl.Flush(); err != nil {
					panic(err)
				}
				ops += int64(c.Batch)
			}
			mu.Lock()
			total += ops
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds() / 1e6
}

// Fig13 compares Wormhole with the Cuckoo hash table on point lookups.
func Fig13(c *Config) {
	c.printf("Figure 13: Wormhole vs Cuckoo hash, lookup MOPS, %d threads\n", c.Threads)
	runMatrix(c, []string{"wormhole", "cuckoo"}, func(name string, keys [][]byte) float64 {
		ix := BuildIndex(name, keys)
		return LookupThroughput(ix, keys, c.Threads, c.Duration, c.Seed)
	})
}

// Fig14 sweeps key length for random-content (Kshort) and zero-filled
// (Klong) keys on Wormhole and Cuckoo, showing anchor-length sensitivity.
func Fig14(c *Config) {
	lengths := []int{8, 16, 32, 64, 128, 256, 512}
	n := c.Keys / 4
	if n < 1000 {
		n = 1000
	}
	c.printf("Figure 14: lookup MOPS vs key length (%d keys, %d threads)\n", n, c.Threads)
	c.printf("%-20s", "index/keyset")
	for _, l := range lengths {
		c.printf("%8d", l)
	}
	c.printf("\n")
	type variant struct {
		label string
		gen   func(length int) [][]byte
	}
	variants := []variant{
		{"wormhole Kshort", func(l int) [][]byte { return keyset.GenKshort(l, n, c.Seed) }},
		{"wormhole Klong", func(l int) [][]byte { return keyset.GenKlong(l, n, c.Seed) }},
		{"cuckoo Kshort", func(l int) [][]byte { return keyset.GenKshort(l, n, c.Seed) }},
		{"cuckoo Klong", func(l int) [][]byte { return keyset.GenKlong(l, n, c.Seed) }},
	}
	for vi, v := range variants {
		name := "wormhole"
		if vi >= 2 {
			name = "cuckoo"
		}
		c.printf("%-20s", v.label)
		for _, l := range lengths {
			keys := v.gen(l)
			ix := BuildIndex(name, keys)
			c.printf("%8.2f", LookupThroughput(ix, keys, c.Threads, c.Duration, c.Seed))
		}
		c.printf("\n")
	}
}

// Fig15 measures single-thread insert-only throughput into empty indexes.
func Fig15(c *Config) {
	c.printf("Figure 15: insertion throughput (MOPS), 1 thread\n")
	runMatrix(c, adapters.Baselines(), func(name string, keys [][]byte) float64 {
		return InsertThroughput(name, keys)
	})
}

// Fig16 reports memory consumption per index and keyset.
func Fig16(c *Config) {
	c.printf("Figure 16: memory usage (MB): analytic footprint [heap delta]\n")
	c.printf("%-10s", "keyset")
	names := append(append([]string{}, adapters.Baselines()...), "baseline")
	for _, n := range names {
		c.printf("%22s", n)
	}
	c.printf("\n")
	for _, ks := range KeysetNames {
		keys := c.Keyset(ks)
		c.printf("%-10s", ks)
		var base int64
		for _, name := range adapters.Baselines() {
			fp, heap, b := MemoryUsage(name, keys)
			base = b
			c.printf("%13.1f [%5.1f]", float64(fp)/1e6, float64(heap)/1e6)
		}
		c.printf("%22.1f", float64(base)/1e6)
		c.printf("\n")
	}
}

// Fig17 measures mixed lookup/insert throughput for Masstree and Wormhole
// at 5%, 50% and 95% insertion ratios.
func Fig17(c *Config) {
	c.printf("Figure 17: mixed workload throughput (MOPS), %d threads\n", c.Threads)
	c.printf("%-24s", "variant")
	for _, ks := range KeysetNames {
		c.printf("%8s", ks)
	}
	c.printf("\n")
	for _, name := range []string{"masstree", "wormhole"} {
		for _, pct := range []int{5, 50, 95} {
			c.printf("%-24s", fmt.Sprintf("%s (%d%% insert)", name, pct))
			for _, ks := range KeysetNames {
				keys := c.Keyset(ks)
				c.printf("%8.2f", MixedThroughput(name, keys, pct, c.Threads, c.Duration, c.Seed))
			}
			c.printf("\n")
		}
	}
}

// Fig18 measures seek-plus-100-key range scans; ART is omitted exactly as
// in the paper (libart has no range scan; ours does, but the figure is
// reproduced as published).
func Fig18(c *Config) {
	c.printf("Figure 18: range lookup throughput (MOPS of scans), %d threads\n", c.Threads)
	runMatrix(c, []string{"skiplist", "btree", "masstree", "wormhole"},
		func(name string, keys [][]byte) float64 {
			ix := BuildIndex(name, keys).(index.Ordered)
			return RangeThroughput(ix, keys, c.Threads, c.Duration, c.Seed)
		})
}

// AblationLeafCap sweeps Wormhole's leaf capacity (a design choice the
// paper fixes at 128) on Az1 lookups.
func AblationLeafCap(c *Config) {
	keys := c.Keyset("Az1")
	c.printf("Ablation: leaf capacity sweep, Az1 lookups (MOPS), %d threads\n", c.Threads)
	c.printf("%-10s %10s %12s %12s\n", "leafcap", "MOPS", "leaves", "meta items")
	for _, cap := range []int{16, 32, 64, 128, 256, 512} {
		o := core.DefaultOptions()
		o.LeafCap = cap
		ix := core.New(o)
		for _, k := range keys {
			ix.Set(k, k)
		}
		mops := LookupThroughput(ix, keys, c.Threads, c.Duration, c.Seed)
		st := ix.Stats()
		c.printf("%-10d %10.2f %12d %12d\n", cap, mops, st.Leaves, st.MetaItems)
	}
}

// threadPoints returns the doubling goroutine counts 1,2,4,... up to and
// including limit.
func threadPoints(limit int) []int {
	points := []int{}
	for t := 1; t <= limit; t *= 2 {
		points = append(points, t)
	}
	if last := points[len(points)-1]; last != limit {
		points = append(points, limit)
	}
	return points
}

// runMatrix prints a keyset-by-index throughput matrix.
func runMatrix(c *Config, names []string, cell func(name string, keys [][]byte) float64) {
	c.printf("%-16s", "index")
	for _, ks := range KeysetNames {
		c.printf("%8s", ks)
	}
	c.printf("\n")
	cols := make(map[string][][]byte, len(KeysetNames))
	for _, ks := range KeysetNames {
		cols[ks] = c.Keyset(ks)
	}
	for _, name := range names {
		c.printf("%-16s", name)
		for _, ks := range KeysetNames {
			c.printf("%8.2f", cell(name, cols[ks]))
		}
		c.printf("\n")
	}
}

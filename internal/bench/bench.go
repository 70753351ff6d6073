// Package bench is the measurement harness behind cmd/whbench and the
// root-level Go benchmarks: deterministic workload generation, a
// multi-threaded throughput runner, and one experiment function per table
// and figure in the paper's evaluation (§4).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/keyset"
)

// Config scales the experiments. Defaults (via Normalize) are laptop-sized:
// the paper's keysets hold 10–500 million keys and its runs use a 32-core
// server; shapes, not absolute numbers, are the reproduction target.
type Config struct {
	Keys     int           // keys per keyset
	Threads  int           // concurrent worker goroutines
	Duration time.Duration // measurement window per cell
	Seed     int64
	Batch    int // netkv request batch (Figure 12)
	// Shards: an explicitly requested shard count that shard-sweep adds
	// to its default ladder; 0 means the ladder alone.
	Shards int
	// Dir roots the failover experiment's store directories; empty means
	// a temp directory removed after the run.
	Dir string
	Out io.Writer // result sink
	// Record, when non-nil, receives every machine-readable benchmark
	// cell an experiment produces (the -json output).
	Record func(Result)
}

// Normalize fills defaults in place.
func (c *Config) Normalize() {
	if c.Keys <= 0 {
		c.Keys = 200_000
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
		if c.Threads > 16 {
			c.Threads = 16 // the paper caps at one 16-core NUMA node
		}
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Batch <= 0 {
		c.Batch = 800
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Rng is a per-worker xorshift generator: cheap enough that key selection
// does not distort index throughput measurements.
type Rng struct{ s uint64 }

// NewRng seeds a generator (seed must be non-zero after mixing).
func NewRng(seed uint64) *Rng { return &Rng{s: seed*2654435761 + 1} }

// Next returns the next pseudo-random value.
func (r *Rng) Next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// Intn returns a value in [0, n).
func (r *Rng) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Throughput runs op concurrently on `threads` workers for roughly dur and
// returns million operations per second. op receives the worker id and the
// worker's generator and performs exactly one operation.
func Throughput(threads int, dur time.Duration, seed int64, op func(tid int, r *Rng)) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := NewRng(uint64(seed) + uint64(tid)*0x9e3779b9)
			ops := int64(0)
			for {
				for i := 0; i < 64; i++ {
					op(tid, r)
				}
				ops += 64
				if time.Now().After(deadline) {
					break
				}
			}
			total.Add(ops)
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(total.Load()) / elapsed / 1e6
}

// BuildIndex instantiates a registered index and loads keys into it
// (value = key, as the paper's index-only evaluation does).
func BuildIndex(name string, keys [][]byte) index.Index {
	info, ok := index.Lookup(name)
	if !ok {
		panic("bench: unknown index " + name)
	}
	ix := info.New()
	for _, k := range keys {
		ix.Set(k, k)
	}
	return ix
}

// LookupThroughput measures uniform random point lookups (the Figure 9/10
// workload: "search keys are uniformly selected from a keyset").
func LookupThroughput(ix index.Index, keys [][]byte, threads int, dur time.Duration, seed int64) float64 {
	n := len(keys)
	return Throughput(threads, dur, seed, func(_ int, r *Rng) {
		k := keys[r.Intn(n)]
		if _, ok := ix.Get(k); !ok {
			panic("bench: loaded key missing")
		}
	})
}

// InsertThroughput measures single-threaded insertion of keys into a fresh
// index (Figure 15's insertion-only workload).
func InsertThroughput(name string, keys [][]byte) float64 {
	info, _ := index.Lookup(name)
	ix := info.New()
	start := time.Now()
	for _, k := range keys {
		ix.Set(k, k)
	}
	el := time.Since(start).Seconds()
	runtime.KeepAlive(ix)
	return float64(len(keys)) / el / 1e6
}

// MixedThroughput measures the Figure 17 workload: insertPct percent of
// operations insert previously-unloaded keys, the rest look up loaded
// ones. Half of the keyset is preloaded; inserts consume the second half
// and then wrap around as updates.
func MixedThroughput(name string, keys [][]byte, insertPct, threads int, dur time.Duration, seed int64) float64 {
	half := len(keys) / 2
	ix := BuildIndex(name, keys[:half])
	return MixedOnIndex(ix, keys, insertPct, threads, dur, seed)
}

// MixedOnIndex runs the Figure 17 mixed workload against an index already
// loaded with the first half of keys; the second half is the insert pool.
func MixedOnIndex(ix index.Index, keys [][]byte, insertPct, threads int, dur time.Duration, seed int64) float64 {
	half := len(keys) / 2
	var cursor atomic.Int64
	pool := keys[half:]
	return Throughput(threads, dur, seed, func(_ int, r *Rng) {
		if r.Intn(100) < insertPct {
			i := int(cursor.Add(1)-1) % len(pool)
			ix.Set(pool[i], pool[i])
		} else {
			ix.Get(keys[r.Intn(half)])
		}
	})
}

// BatchLookupThroughput measures batched point lookups on a sharded store:
// every worker repeatedly fills a batch of uniformly random loaded keys
// and issues one GetBatch, the server-side analogue of netkv's batching.
// The returned figure is MOPS of individual lookups, not batches.
func BatchLookupThroughput(bx index.Batcher, keys [][]byte, batch, threads int, dur time.Duration, seed int64) float64 {
	n := len(keys)
	batches := make([][][]byte, threads)
	for t := range batches {
		batches[t] = make([][]byte, batch)
	}
	mbatches := Throughput(threads, dur, seed, func(tid int, r *Rng) {
		b := batches[tid]
		for i := range b {
			b[i] = keys[r.Intn(n)]
		}
		_, found := bx.GetBatch(b)
		for _, ok := range found {
			if !ok {
				panic("bench: loaded key missing from batch lookup")
			}
		}
	})
	return mbatches * float64(batch)
}

// RangeThroughput measures Figure 18's workload: seek a uniformly random
// existing key and scan the following (up to) 100 keys. One full warm-up
// scan first: Wormhole sorts leaf append regions lazily on first touch
// (§3.2's delayed batched sorting), a cost the paper's long runs amortize
// but a short measurement window would conflate with steady-state scans.
func RangeThroughput(ix index.Ordered, keys [][]byte, threads int, dur time.Duration, seed int64) float64 {
	n := len(keys)
	ix.Scan(nil, func(_, _ []byte) bool { return true })
	return Throughput(threads, dur, seed, func(_ int, r *Rng) {
		cnt := 0
		ix.Scan(keys[r.Intn(n)], func(_, _ []byte) bool {
			cnt++
			return cnt < 100
		})
	})
}

// MemoryUsage loads keys into a fresh index and reports (analytic
// footprint, heap delta) in bytes, plus the paper's baseline formula
// sum(keylen + pointer) (Figure 16).
func MemoryUsage(name string, keys [][]byte) (footprint, heapDelta, baseline int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ix := BuildIndex(name, keys)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	footprint = ix.Footprint()
	heapDelta = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	for _, k := range keys {
		baseline += int64(len(k)) + 8
	}
	runtime.KeepAlive(ix)
	return footprint, heapDelta, baseline
}

// Keyset materializes a named keyset at the configured scale.
func (c *Config) Keyset(name string) [][]byte {
	spec, ok := keyset.Lookup(name)
	if !ok {
		panic("bench: unknown keyset " + name)
	}
	n := c.Keys
	// K8/K10 keys are 256 B and 1 KB; cap their count like Table 1 does to
	// keep total bytes comparable across keysets.
	switch name {
	case "K8":
		n = c.Keys / 4
	case "K10":
		n = c.Keys / 16
	}
	if n < 1000 {
		n = 1000
	}
	return spec.Gen(n, c.Seed)
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

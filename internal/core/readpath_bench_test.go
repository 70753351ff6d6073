package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/repro/wormhole/internal/keyset"
)

// benchKeys returns n distinct keys shaped like the paper's composite
// keysets: a shared prefix, a variable numeric run, and a suffix.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("az-%09d-suffix", i*7))
	}
	return keys
}

// BenchmarkGet measures the concurrent point-read path (one-shot QSBR
// reader section per call).
func BenchmarkGet(b *testing.B) {
	w := New(DefaultOptions())
	keys := benchKeys(200000)
	for _, k := range keys {
		w.Set(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Get(keys[(i*2654435761)%len(keys)])
	}
}

// BenchmarkReaderGet measures the same lookup through a pinned read
// handle, the amortized path a server connection uses.
func BenchmarkReaderGet(b *testing.B) {
	w := New(DefaultOptions())
	keys := benchKeys(200000)
	for _, k := range keys {
		w.Set(k, k)
	}
	r := w.NewReader()
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get(keys[(i*2654435761)%len(keys)])
	}
}

// BenchmarkGetParallel measures Get under GOMAXPROCS-way concurrency,
// each worker on a pinned handle.
func BenchmarkGetParallel(b *testing.B) {
	w := New(DefaultOptions())
	keys := benchKeys(200000)
	for _, k := range keys {
		w.Set(k, k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := w.NewReader()
		defer r.Close()
		i := 0
		for pb.Next() {
			r.Get(keys[(i*2654435761)%len(keys)])
			i++
		}
	})
}

// BenchmarkSet measures insertion into fresh indexes (splits included).
func BenchmarkSet(b *testing.B) {
	keys := benchKeys(200000)
	b.ResetTimer()
	var w *Wormhole
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 {
			b.StopTimer()
			w = New(DefaultOptions())
			b.StartTimer()
		}
		k := keys[i%len(keys)]
		w.Set(k, k)
	}
}

// BenchmarkGetBatchVsGet compares a scalar Get with a GetBatch(64) per key
// on 500k Az1 keys, in one process, so the two sub-benchmarks' ratio holds
// however the host drifts between runs. The index is loaded from cloned
// buffers and probed with the generator's own, separately allocated key
// slices in a pre-drawn uniform order: a lookup then starts with a cache
// miss on the caller's key bytes, as it does for a server or a benchmark
// client, where keys allocated in order would sit warm beside each other.
func BenchmarkGetBatchVsGet(b *testing.B) {
	const batch = 64
	keys := keyset.GenAz1(500000, 42)
	w := New(DefaultOptions())
	for _, k := range keys {
		w.Set(bytes.Clone(k), k)
	}
	order := make([]int, 1<<20)
	x := uint64(88172645463325252)
	for i := range order {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		order[i] = int(x % uint64(len(keys)))
	}
	rd := w.NewReader()
	defer rd.Close()
	probe := make([][]byte, batch)
	vals := make([][]byte, batch)
	found := make([]bool, batch)
	perKey := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	}
	b.Run("get", func(b *testing.B) {
		p := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, ok := rd.Get(keys[order[p]]); !ok {
					b.Fatal("loaded key missing")
				}
				p = (p + 1) & (len(order) - 1)
			}
		}
		perKey(b)
	})
	b.Run("batch64", func(b *testing.B) {
		p := 0
		for i := 0; i < b.N; i++ {
			for j := range probe {
				probe[j] = keys[order[p]]
				p = (p + 1) & (len(order) - 1)
			}
			rd.GetBatchInto(probe, vals, found, nil)
			for j := range found {
				if !found[j] {
					b.Fatal("loaded key missing")
				}
			}
		}
		perKey(b)
	})
}

// BenchmarkScan50 prices a 50-pair range scan, ascending and descending,
// per emitted pair, on 500k Az1 keys loaded from cloned buffers, in the
// style of BenchmarkGetBatchVsGet: starts are the generator's own key
// slices drawn up front in a uniform order, and the callback keeps the
// previous key for one call and checks the order, as a caller checking
// its results would. The cost covers the seek, the chunk copy-out and,
// behind a leaf's fence prefix, the assembly of every key handed out.
func BenchmarkScan50(b *testing.B) {
	const scanLen = 50
	keys := keyset.GenAz1(500000, 42)
	w := New(DefaultOptions())
	for _, k := range keys {
		w.Set(bytes.Clone(k), k)
	}
	starts := make([][]byte, 1<<16)
	x := uint64(88172645463325252)
	for i := range starts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		starts[i] = keys[x%uint64(len(keys))]
	}
	rd := w.NewReader()
	defer rd.Close()
	for _, desc := range []bool{false, true} {
		name := "asc"
		if desc {
			name = "desc"
		}
		b.Run(name, func(b *testing.B) {
			var prev []byte
			n, pairs := 0, 0
			visit := func(k, _ []byte) bool {
				if c := bytes.Compare(prev, k); n > 0 && (c == 0 || (c > 0) != desc) {
					b.Fatalf("scan out of order: %q then %q", prev, k)
				}
				prev = k
				n++
				return n < scanLen
			}
			for i := 0; i < b.N; i++ {
				n = 0
				start := starts[i&(len(starts)-1)]
				if desc {
					rd.ScanDesc(start, visit)
				} else {
					rd.Scan(start, visit)
				}
				pairs += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(pairs, 1)), "ns/pair")
		})
	}
}

// Root-level benchmarks: one testing.B family per table and figure of the
// paper's evaluation (§4), at Go-benchmark scale. cmd/whbench runs the same
// experiments at configurable scale with the paper's table layouts; see
// README.md for how to run them. Keyset sizes here are kept small
// enough that `go test -bench=.` finishes in minutes; pass
// -benchtime/-count to sharpen numbers.
package wormhole_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/wormhole"
	"github.com/repro/wormhole/internal/adapters"
	"github.com/repro/wormhole/internal/bench"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/netkv"
)

const benchKeys = 100_000

var keysetCache = map[string][][]byte{}

func loadKeyset(b *testing.B, name string) [][]byte {
	b.Helper()
	if ks, ok := keysetCache[name]; ok {
		return ks
	}
	cfg := &bench.Config{Keys: benchKeys, Seed: 42}
	cfg.Normalize()
	ks := cfg.Keyset(name)
	keysetCache[name] = ks
	return ks
}

var indexCache = map[string]index.Index{}

func loadIndex(b *testing.B, ixName, ksName string) index.Index {
	b.Helper()
	id := ixName + "/" + ksName
	if ix, ok := indexCache[id]; ok {
		return ix
	}
	ix := bench.BuildIndex(ixName, loadKeyset(b, ksName))
	indexCache[id] = ix
	return ix
}

func benchLookup(b *testing.B, ixName, ksName string) {
	keys := loadKeyset(b, ksName)
	ix := loadIndex(b, ixName, ksName)
	r := bench.NewRng(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Get(keys[r.Intn(len(keys))]); !ok {
			b.Fatal("loaded key missing")
		}
	}
}

// BenchmarkTable1_KeysetGen regenerates the Table 1 keysets (the workload
// substrate itself).
func BenchmarkTable1_KeysetGen(b *testing.B) {
	for _, spec := range keyset.Table1() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				keys := spec.Gen(2000, int64(i))
				if len(keys) != 2000 {
					b.Fatal("short keyset")
				}
			}
		})
	}
}

// BenchmarkFig09_LookupParallel is the thread-scaling experiment: run with
// -cpu=1,2,4,8,16 to sweep worker counts on the Az1 keyset.
func BenchmarkFig09_LookupParallel(b *testing.B) {
	for _, name := range []string{"skiplist", "btree", "art", "masstree", "wormhole"} {
		b.Run(name, func(b *testing.B) {
			keys := loadKeyset(b, "Az1")
			ix := loadIndex(b, name, "Az1")
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := bench.NewRng(seq.Add(1))
				for pb.Next() {
					ix.Get(keys[r.Intn(len(keys))])
				}
			})
		})
	}
}

// BenchmarkFig10_Lookup covers the keyset-by-index lookup matrix.
func BenchmarkFig10_Lookup(b *testing.B) {
	for _, ks := range bench.KeysetNames {
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) { benchLookup(b, name, ks) })
		}
	}
}

// BenchmarkFig12_NetworkedLookup measures batched GETs over TCP loopback.
func BenchmarkFig12_NetworkedLookup(b *testing.B) {
	for _, name := range []string{"btree", "wormhole"} {
		b.Run(name, func(b *testing.B) {
			keys := loadKeyset(b, "Az1")
			srv, err := netkv.Serve("127.0.0.1:0", loadIndex(b, name, "Az1"))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cl, err := netkv.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			r := bench.NewRng(7)
			batch := netkv.DefaultBatch
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := batch
				if rem := b.N - done; rem < n {
					n = rem
				}
				for i := 0; i < n; i++ {
					cl.QueueGet(keys[r.Intn(len(keys))])
				}
				if _, err := cl.Flush(); err != nil {
					b.Fatal(err)
				}
				done += n
			}
		})
	}
}

// BenchmarkFig13_VsCuckoo compares ordered Wormhole with the unordered
// Cuckoo hash table on point lookups.
func BenchmarkFig13_VsCuckoo(b *testing.B) {
	for _, ks := range []string{"Az1", "Url", "K3", "K10"} {
		for _, name := range []string{"wormhole", "cuckoo"} {
			b.Run(ks+"/"+name, func(b *testing.B) { benchLookup(b, name, ks) })
		}
	}
}

// BenchmarkFig14_AnchorLength measures the Kshort/Klong sensitivity at a
// representative 64-byte key length.
func BenchmarkFig14_AnchorLength(b *testing.B) {
	const n = benchKeys / 4
	sets := map[string][][]byte{
		"Kshort64":  keyset.GenKshort(64, n, 42),
		"Klong64":   keyset.GenKlong(64, n, 42),
		"Kshort512": keyset.GenKshort(512, n/4, 42),
		"Klong512":  keyset.GenKlong(512, n/4, 42),
	}
	for _, ksName := range []string{"Kshort64", "Klong64", "Kshort512", "Klong512"} {
		keys := sets[ksName]
		for _, name := range []string{"wormhole", "cuckoo"} {
			b.Run(ksName+"/"+name, func(b *testing.B) {
				ix := bench.BuildIndex(name, keys)
				r := bench.NewRng(7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ix.Get(keys[r.Intn(len(keys))])
				}
			})
		}
	}
}

// BenchmarkFig15_Insert measures insertions into an initially empty index.
func BenchmarkFig15_Insert(b *testing.B) {
	for _, ks := range []string{"Az1", "Url", "K3"} {
		keys := loadKeyset(b, ks)
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) {
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

// BenchmarkFig16_Memory reports bytes/key as the benchmark metric.
func BenchmarkFig16_Memory(b *testing.B) {
	for _, ks := range []string{"Az1", "Url", "K3"} {
		keys := loadKeyset(b, ks)
		for _, name := range adapters.Baselines() {
			b.Run(ks+"/"+name, func(b *testing.B) {
				var fp int64
				for i := 0; i < b.N; i++ {
					ix := bench.BuildIndex(name, keys)
					fp = ix.Footprint()
				}
				b.ReportMetric(float64(fp)/float64(len(keys)), "bytes/key")
			})
		}
	}
}

// BenchmarkFig17_Mixed measures the mixed lookup/insert workload for the
// two thread-safe indexes at the paper's three insert ratios.
func BenchmarkFig17_Mixed(b *testing.B) {
	keys := loadKeyset(b, "Az1")
	half := len(keys) / 2
	for _, name := range []string{"masstree", "wormhole"} {
		for _, pct := range []int{5, 50, 95} {
			b.Run(fmt.Sprintf("%s/insert%02d", name, pct), func(b *testing.B) {
				ix := bench.BuildIndex(name, keys[:half])
				pool := keys[half:]
				var cursor atomic.Int64
				r := bench.NewRng(7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if r.Intn(100) < pct {
						j := int(cursor.Add(1)-1) % len(pool)
						ix.Set(pool[j], pool[j])
					} else {
						ix.Get(keys[r.Intn(half)])
					}
				}
			})
		}
	}
}

// BenchmarkFig18_Range measures seek-plus-100-key scans (ops = scans).
func BenchmarkFig18_Range(b *testing.B) {
	for _, ks := range []string{"Az1", "Url", "K3"} {
		keys := loadKeyset(b, ks)
		for _, name := range []string{"skiplist", "btree", "masstree", "wormhole"} {
			b.Run(ks+"/"+name, func(b *testing.B) {
				ix := loadIndex(b, name, ks).(index.Ordered)
				r := bench.NewRng(7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cnt := 0
					ix.Scan(keys[r.Intn(len(keys))], func(_, _ []byte) bool {
						cnt++
						return cnt < 100
					})
				}
			})
		}
	}
}

// BenchmarkAblation_LeafCap sweeps the leaf capacity design choice.
func BenchmarkAblation_LeafCap(b *testing.B) {
	keys := loadKeyset(b, "Az1")
	for _, leafCap := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("cap%d", leafCap), func(b *testing.B) {
			ix := wormhole.NewConfig(wormhole.Config{LeafCap: leafCap})
			for _, k := range keys {
				ix.Set(k, k)
			}
			r := bench.NewRng(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Get(keys[r.Intn(len(keys))])
			}
		})
	}
}

// BenchmarkAblation_GracePeriod isolates the §2.5 concurrency machinery:
// splits that must wait out QSBR grace periods under reader load.
func BenchmarkAblation_GracePeriod(b *testing.B) {
	for _, readers := range []int{0, 4} {
		b.Run(fmt.Sprintf("readers%d", readers), func(b *testing.B) {
			ix := bench.BuildIndex("wormhole", nil)
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

package wormhole_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	wormhole "github.com/repro/wormhole"
)

func TestPublicAPIBasics(t *testing.T) {
	idx := wormhole.New()
	idx.Set([]byte("b"), []byte("2"))
	idx.Set([]byte("a"), []byte("1"))
	idx.Set([]byte("c"), []byte("3"))
	if v, ok := idx.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, ok)
	}
	if idx.Count() != 3 {
		t.Fatalf("Count = %d", idx.Count())
	}
	if k, v, ok := idx.Min(); !ok || string(k) != "a" || string(v) != "1" {
		t.Fatal("Min wrong")
	}
	if k, _, ok := idx.Max(); !ok || string(k) != "c" {
		t.Fatal("Max wrong")
	}
	if !idx.Del([]byte("b")) || idx.Del([]byte("b")) {
		t.Fatal("Del semantics wrong")
	}
	var got []string
	idx.Scan(nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != "[a c]" {
		t.Fatalf("scan = %v", got)
	}
	got = got[:0]
	idx.ScanDesc(nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != "[c a]" {
		t.Fatalf("desc scan = %v", got)
	}
}

// TestPublicGetBatch checks the batched read surface on Index, Reader,
// Sharded and ShardedReader against scalar Gets, including duplicates,
// misses and the empty key.
func TestPublicGetBatch(t *testing.T) {
	idx := wormhole.New()
	sh := wormhole.NewSharded(wormhole.ShardedConfig{Shards: 4})
	keys := make([][]byte, 0, 600)
	for i := 0; i < 600; i++ {
		k := []byte(fmt.Sprintf("pub-%04d", i))
		keys = append(keys, k)
		if i%3 != 0 { // leave a third missing
			idx.Set(k, []byte(fmt.Sprintf("v%d", i)))
			sh.Set(k, []byte(fmt.Sprintf("v%d", i)))
		}
	}
	batch := [][]byte{{}, keys[1], keys[0], keys[1], []byte("absent")}
	batch = append(batch, keys...)
	rd := idx.Reader()
	defer rd.Close()
	srd := sh.Reader()
	defer srd.Close()
	check := func(name string, vals [][]byte, found []bool, get func([]byte) ([]byte, bool)) {
		t.Helper()
		if len(vals) != len(batch) || len(found) != len(batch) {
			t.Fatalf("%s: %d/%d results for %d keys", name, len(vals), len(found), len(batch))
		}
		for i, k := range batch {
			sv, sok := get(k)
			if found[i] != sok || !bytes.Equal(vals[i], sv) {
				t.Fatalf("%s: batch[%d](%q) = %q,%v; Get = %q,%v", name, i, k, vals[i], found[i], sv, sok)
			}
		}
	}
	vals, found := idx.GetBatch(batch)
	check("Index", vals, found, idx.Get)
	vals, found = rd.GetBatch(batch)
	check("Reader", vals, found, idx.Get)
	vals, found = sh.GetBatch(batch)
	check("Sharded", vals, found, sh.Get)
	vals, found = srd.GetBatch(batch)
	check("ShardedReader", vals, found, sh.Get)
}

func TestPublicConfigVariants(t *testing.T) {
	for _, cfg := range []wormhole.Config{
		{},
		{LeafCap: 8},
		{LeafCap: 16, MergeSize: 4},
	} {
		idx := wormhole.NewConfig(cfg)
		model := map[string]string{}
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("cfg-%04d", r.Intn(600))
			switch r.Intn(3) {
			case 0, 1:
				idx.Set([]byte(k), []byte(k))
				model[k] = k
			case 2:
				got := idx.Del([]byte(k))
				_, want := model[k]
				if got != want {
					t.Fatalf("cfg %+v: Del(%s) = %v want %v", cfg, k, got, want)
				}
				delete(model, k)
			}
		}
		if int(idx.Count()) != len(model) {
			t.Fatalf("cfg %+v: Count %d want %d", cfg, idx.Count(), len(model))
		}
		var keys []string
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		it := idx.Iter(nil)
		for _, want := range keys {
			if !it.Next() {
				t.Fatalf("cfg %+v: iterator exhausted before %s", cfg, want)
			}
			if string(it.Key()) != want {
				t.Fatalf("cfg %+v: iter %q want %q", cfg, it.Key(), want)
			}
		}
		if it.Next() {
			t.Fatalf("cfg %+v: iterator has extra keys", cfg)
		}
	}
}

func TestPublicRangeAsc(t *testing.T) {
	idx := wormhole.New()
	for i := 0; i < 100; i++ {
		idx.Set([]byte(fmt.Sprintf("r%03d", i)), []byte{byte(i)})
	}
	keys, vals := idx.RangeAsc([]byte("r090"), 20)
	if len(keys) != 10 || string(keys[0]) != "r090" || vals[9][0] != 99 {
		t.Fatalf("RangeAsc window wrong: %d keys", len(keys))
	}
}

func TestPublicConcurrent(t *testing.T) {
	idx := wormhole.NewConfig(wormhole.Config{LeafCap: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("g%d-%05d", g, i))
				idx.Set(k, k)
				if v, ok := idx.Get(k); !ok || !bytes.Equal(v, k) {
					t.Errorf("read-own-write failed for %s", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if idx.Count() != 8*2000 {
		t.Fatalf("Count = %d", idx.Count())
	}
	st := idx.Stats()
	if st.Keys != 8*2000 || st.Leaves == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if idx.Footprint() <= 0 {
		t.Fatal("Footprint <= 0")
	}
}

func ExampleIndex() {
	idx := wormhole.New()
	idx.Set([]byte("James"), []byte("1"))
	idx.Set([]byte("John"), []byte("2"))
	idx.Set([]byte("Aaron"), []byte("3"))
	idx.Scan([]byte("J"), func(k, v []byte) bool {
		fmt.Printf("%s=%s\n", k, v)
		return true
	})
	// Output:
	// James=1
	// John=2
}

// TestPublicDescAndIterators covers the descending surface added with the
// lock-free scan path: ScanDesc/RangeDesc/IterDesc on Index, scans on
// Reader handles, and the sharded store's descending stitching.
func TestPublicDescAndIterators(t *testing.T) {
	idx := wormhole.New()
	for i := 0; i < 500; i++ {
		idx.Set([]byte(fmt.Sprintf("d%04d", i)), []byte{byte(i)})
	}

	keys, _ := idx.RangeDesc([]byte("d0100"), 10)
	if len(keys) != 10 || string(keys[0]) != "d0100" || string(keys[9]) != "d0091" {
		t.Fatalf("RangeDesc window wrong: %v", keys)
	}

	n := 0
	idx.ScanDesc(nil, func(k, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("ScanDesc visited %d", n)
	}

	it := idx.IterDesc([]byte("d0050"))
	for want := 50; want >= 0; want-- {
		if !it.Next() {
			t.Fatalf("IterDesc dry at %d", want)
		}
		if got := string(it.Key()); got != fmt.Sprintf("d%04d", want) {
			t.Fatalf("IterDesc key %q, want d%04d", got, want)
		}
	}
	if it.Next() {
		t.Fatal("IterDesc has extra keys")
	}
	it.Close()

	r := idx.Reader()
	defer r.Close()
	prev := ""
	n = 0
	r.Scan([]byte("d0490"), func(k, v []byte) bool {
		if prev != "" && prev >= string(k) {
			t.Fatalf("Reader.Scan out of order")
		}
		prev = string(k)
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("Reader.Scan visited %d, want 10", n)
	}
	n = 0
	r.ScanDesc([]byte("d0009"), func(k, v []byte) bool { n++; return true })
	if n != 10 {
		t.Fatalf("Reader.ScanDesc visited %d, want 10", n)
	}

	sh := wormhole.NewSharded(wormhole.ShardedConfig{Shards: 4})
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("s%04d", i))
		sh.Set(k, k)
	}
	prev = ""
	n = 0
	sh.ScanDesc(nil, func(k, v []byte) bool {
		if prev != "" && prev <= string(k) {
			t.Fatalf("Sharded.ScanDesc out of order: %q then %q", prev, k)
		}
		prev = string(k)
		n++
		return true
	})
	if n != 1000 {
		t.Fatalf("Sharded.ScanDesc visited %d, want 1000", n)
	}
	keys, vals := sh.RangeDesc([]byte("s0123"), 4)
	if len(keys) != 4 || string(keys[0]) != "s0123" || string(keys[3]) != "s0120" ||
		!bytes.Equal(keys[2], vals[2]) {
		t.Fatalf("Sharded.RangeDesc window wrong: %v", keys)
	}
	keys, _ = sh.RangeAsc([]byte("s0990"), 100)
	if len(keys) != 10 || string(keys[0]) != "s0990" {
		t.Fatalf("Sharded.RangeAsc window wrong: %d", len(keys))
	}

	sr := sh.Reader()
	defer sr.Close()
	n = 0
	sr.Scan([]byte("s0995"), func(k, v []byte) bool { n++; return true })
	if n != 5 {
		t.Fatalf("ShardedReader.Scan visited %d, want 5", n)
	}
	n = 0
	sr.ScanDesc([]byte("s0004"), func(k, v []byte) bool { n++; return true })
	if n != 5 {
		t.Fatalf("ShardedReader.ScanDesc visited %d, want 5", n)
	}
}

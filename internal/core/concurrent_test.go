package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentDisjointWriters: goroutines own disjoint key spaces, so
// after the storm each can verify its own keys exactly and the global
// structure must satisfy every invariant.
func TestConcurrentDisjointWriters(t *testing.T) {
	w := New(smallOpts())
	const workers = 8
	const perWorker = 800
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			live := map[int]bool{}
			for i := 0; i < perWorker; i++ {
				n := r.Intn(200)
				k := []byte(fmt.Sprintf("w%02d-%04d", g, n))
				switch r.Intn(3) {
				case 0, 1:
					w.Set(k, []byte(fmt.Sprintf("g%d", g)))
					live[n] = true
				case 2:
					got := w.Del(k)
					if got != live[n] {
						t.Errorf("worker %d: Del(%s)=%v want %v", g, k, got, live[n])
						return
					}
					delete(live, n)
				}
			}
			for n := range live {
				k := []byte(fmt.Sprintf("w%02d-%04d", g, n))
				if v, ok := w.Get(k); !ok || string(v) != fmt.Sprintf("g%d", g) {
					t.Errorf("worker %d: lost key %s", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStableReaders: a fixed set of keys is inserted up front and
// never touched again; readers must find every one of them on every probe
// while writers churn disjoint keys, forcing splits, merges, and table
// swaps underneath the readers.
func TestConcurrentStableReaders(t *testing.T) {
	w := New(smallOpts())
	const stable = 500
	for i := 0; i < stable; i++ {
		w.Set([]byte(fmt.Sprintf("stable-%04d", i)), []byte("s"))
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("churn-%02d-%05d", g, r.Intn(2000)))
				if r.Intn(2) == 0 {
					w.Set(k, []byte("c"))
				} else {
					w.Del(k)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 20000; i++ {
				n := r.Intn(stable)
				k := []byte(fmt.Sprintf("stable-%04d", n))
				if v, ok := w.Get(k); !ok || string(v) != "s" {
					t.Errorf("reader lost stable key %s (ok=%v v=%q)", k, ok, v)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScanUnderChurn: scans must stay sorted, duplicate-free and
// must always contain every stable key in range, while splits and merges
// run concurrently.
func TestConcurrentScanUnderChurn(t *testing.T) {
	w := New(smallOpts())
	const stable = 300
	for i := 0; i < stable; i++ {
		w.Set([]byte(fmt.Sprintf("s-%04d", i*2)), []byte("s"))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("s-%04d", r.Intn(stable*2)*2+1)) // odd keys only
				if r.Intn(2) == 0 {
					w.Set(k, []byte("c"))
				} else {
					w.Del(k)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for iter := 0; iter < 200; iter++ {
			var prev []byte
			stableSeen := 0
			w.Scan([]byte("s-"), func(k, v []byte) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Errorf("scan order violation: %q then %q", prev, k)
					return false
				}
				prev = append(prev[:0], k...)
				if string(v) == "s" {
					stableSeen++
				}
				return true
			})
			if stableSeen != stable {
				t.Errorf("scan iter %d saw %d stable keys, want %d", iter, stableSeen, stable)
				return
			}
		}
	}()
	wg.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDescScanUnderChurn is the descending twin, exercising the
// prev-hop validation path (stale predecessor after a split).
func TestConcurrentDescScanUnderChurn(t *testing.T) {
	w := New(smallOpts())
	const stable = 300
	for i := 0; i < stable; i++ {
		w.Set([]byte(fmt.Sprintf("s-%04d", i*2)), []byte("s"))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("s-%04d", r.Intn(stable*2)*2+1))
				if r.Intn(2) == 0 {
					w.Set(k, []byte("c"))
				} else {
					w.Del(k)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for iter := 0; iter < 200; iter++ {
			var prev []byte
			stableSeen := 0
			w.ScanDesc(nil, func(k, v []byte) bool {
				if prev != nil && bytes.Compare(prev, k) <= 0 {
					t.Errorf("desc scan order violation: %q then %q", prev, k)
					return false
				}
				prev = append(prev[:0], k...)
				if string(v) == "s" {
					stableSeen++
				}
				return true
			})
			if stableSeen != stable {
				t.Errorf("desc scan iter %d saw %d stable keys, want %d", iter, stableSeen, stable)
				return
			}
		}
	}()
	wg.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedEverything throws every operation at the index at
// once and then only checks structural invariants and per-key agreement
// for keys owned by a single goroutine.
func TestConcurrentMixedEverything(t *testing.T) {
	w := New(smallOpts())
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g * 31)))
			for i := 0; i < 1500; i++ {
				k := []byte(fmt.Sprintf("%02d%04d", g, r.Intn(300)))
				switch r.Intn(6) {
				case 0, 1, 2:
					w.Set(k, k)
				case 3:
					w.Del(k)
				case 4:
					w.Get(k)
				case 5:
					n := 0
					w.Scan(k, func(_, _ []byte) bool { n++; return n < 20 })
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every surviving value equals its key (writers only ever Set(k, k)).
	w.Scan(nil, func(k, v []byte) bool {
		if !bytes.Equal(k, v) {
			t.Fatalf("value corruption: key %q has value %q", k, v)
		}
		return true
	})
}

// TestVersionRetryPath forces the reader-retry protocol: a reader loads the
// current table, a split bumps the leaf's expected version, and the reader
// must transparently retry rather than miss. This is probabilistic but the
// small leaf cap makes version bumps near-continuous.
func TestVersionRetryPath(t *testing.T) {
	o := DefaultOptions()
	o.LeafCap = 4
	o.MergeSize = 2
	w := New(o)
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			w.Set([]byte(fmt.Sprintf("r%06d", i%5000)), []byte("x"))
		}
	}()
	w.Set([]byte("pin"), []byte("p"))
	for i := 0; i < 50000; i++ {
		if _, ok := w.Get([]byte("pin")); !ok {
			t.Fatal("lost pinned key during churn")
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

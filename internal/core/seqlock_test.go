package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/wormhole/internal/testsupport"
)

// overwriteValue builds the value written for generation n of a hammered
// key: a self-describing string whose length varies with n. A torn
// observation — one generation's offset with another's length — cannot
// reproduce any generation's exact bytes, so readers can certify every
// Get result by reparsing it.
func overwriteValue(n int) []byte {
	return []byte(strings.Repeat(fmt.Sprintf("v%07d|", n), 1+n%4))
}

func checkOverwriteValue(t *testing.T, k, v []byte) {
	t.Helper()
	if len(v) < 9 || v[0] != 'v' {
		t.Errorf("key %s: malformed value %q", k, v)
		return
	}
	var n int
	if _, err := fmt.Sscanf(string(v[1:8]), "%d", &n); err != nil {
		t.Errorf("key %s: unparsable value %q", k, v)
		return
	}
	if want := overwriteValue(n); string(v) != string(want) {
		t.Errorf("key %s: torn value %q (generation %d wants %q)", k, v, n, want)
	}
}

// TestSeqlockGetUnderChurn hammers the optimistic read path with every
// writer-side mutation it must survive: value overwrites of varying
// length (which also move the leaf to fresh arenas), Set-driven splits, and
// delete-driven merges, all while plain Get and pinned Reader.Get race
// lock-free through the published tag blocks. Run with -race.
func TestSeqlockGetUnderChurn(t *testing.T) {
	w := New(smallOpts())
	const hammered = 64 // keys that get overwritten forever
	for i := 0; i < hammered; i++ {
		w.Set([]byte(fmt.Sprintf("hot-%03d", i)), overwriteValue(0))
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	// Overwriters: bump generations on the hammered keys in place.
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for n := 1; !stop.Load(); n++ {
				k := []byte(fmt.Sprintf("hot-%03d", r.Intn(hammered)))
				w.Set(k, overwriteValue(n))
			}
		}(g)
	}
	// Churners: force splits and merges around the hammered keys so the
	// leaves holding them keep moving between tables and versions.
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("hot-%03d-churn-%02d-%04d", r.Intn(hammered), g, r.Intn(500)))
				if r.Intn(2) == 0 {
					w.Set(k, []byte("c"))
				} else {
					w.Del(k)
				}
			}
		}(g)
	}
	// Readers: half through plain Get, half through a pinned Reader.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var get func([]byte) ([]byte, bool)
			if g%2 == 0 {
				get = w.Get
			} else {
				rd := w.NewReader()
				defer rd.Close()
				get = rd.Get
			}
			r := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 15000; i++ {
				k := []byte(fmt.Sprintf("hot-%03d", r.Intn(hammered)))
				v, ok := get(k)
				if !ok {
					t.Errorf("reader %d: lost hammered key %s", g, k)
					return
				}
				checkOverwriteValue(t, k, v)
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

// TestGetZeroAllocs guards the allocation-free read path: a point lookup
// on the concurrent index must not allocate, through either the one-shot
// Get or a pinned Reader, including keys long enough to exercise the full
// prefix binary search.
func TestGetZeroAllocs(t *testing.T) {
	w := New(DefaultOptions())
	var keys [][]byte
	for i := 0; i < 50000; i++ {
		k := []byte(fmt.Sprintf("az-%09d-shared-suffix", i*7))
		keys = append(keys, k)
		w.Set(k, k)
	}
	miss := []byte("az-miss-000000000")
	i := 0
	if n, win := testsupport.Mallocs(2000, 0, func() {
		w.Get(keys[(i*2654435761)%len(keys)])
		w.Get(miss)
		i++
	}); n != 0 {
		t.Errorf("Get: %d allocs over 2000 runs, want 0 (%s)", n, win)
	}
	r := w.NewReader()
	defer r.Close()
	i = 0
	if n, win := testsupport.Mallocs(2000, 0, func() {
		r.Get(keys[(i*2654435761)%len(keys)])
		i++
	}); n != 0 {
		t.Errorf("Reader.Get: %d allocs over 2000 runs, want 0 (%s)", n, win)
	}
}

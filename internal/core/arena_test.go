package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/wormhole/internal/keyset"
	"github.com/repro/wormhole/internal/testsupport"
)

// TestSetCopiesBuffers pins the ownership contract: Set, SetNoWait and
// BulkLoad copy, so a caller may build every key and value in one reused
// buffer.
func TestSetCopiesBuffers(t *testing.T) {
	const n = 10000
	key := make([]byte, 0, 32)
	val := make([]byte, 0, 32)
	fill := func(i int) {
		key = fmt.Appendf(key[:0], "reused-key-%06d", i)
		val = fmt.Appendf(val[:0], "reused-val-%06d", i)
	}
	check := func(t *testing.T, w *Wormhole) {
		t.Helper()
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("reused-key-%06d", i)
			v, ok := w.Get([]byte(k))
			if want := fmt.Sprintf("reused-val-%06d", i); !ok || string(v) != want {
				t.Fatalf("Get(%s) = %q, %v; want %q", k, v, ok, want)
			}
		}
	}
	t.Run("Set", func(t *testing.T) {
		w := New(DefaultOptions())
		for i := 0; i < n; i++ {
			fill(i)
			w.Set(key, val)
		}
		check(t, w)
	})
	t.Run("SetNoWait", func(t *testing.T) {
		w := New(DefaultOptions())
		for i := n - 1; i >= 0; i-- {
			fill(i)
			w.SetNoWait(key, val)
		}
		check(t, w)
	})
	t.Run("BulkLoad", func(t *testing.T) {
		// Every key and value aliases one buffer per pair position, which
		// is scribbled over once BulkLoad returns.
		buf := make([]byte, 0, n*64)
		keys, vals := make([][]byte, n), make([][]byte, n)
		for i := 0; i < n; i++ {
			fill(i)
			buf = append(buf, key...)
			keys[i] = buf[len(buf)-len(key):]
			buf = append(buf, val...)
			vals[i] = buf[len(buf)-len(val):]
		}
		w := New(DefaultOptions())
		if err := w.BulkLoad(keys, vals); err != nil {
			t.Fatal(err)
		}
		clear(buf[:cap(buf)])
		check(t, w)
	})
}

// TestResultsCapacityClipped pins that every key and value slice the index
// hands out has cap == len: a caller appending to one gets a copy, and the
// neighbouring records in the arena stay as they were.
func TestResultsCapacityClipped(t *testing.T) {
	w := New(smallOpts())
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("clip-%04d", i)) }
	valOf := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d", i)) }
	for i := 0; i < n; i++ {
		w.Set(key(i), valOf(i))
	}
	// scribble checks a returned key (nil: none returned) and value, then
	// appends to both.
	scribble := func(name string, k, v []byte) {
		t.Helper()
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("%s: key cap %d len %d, value cap %d len %d", name, cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, "XXXXXXXXXXXXXXXXXXXXXXXX"...)
		_ = append(v, "XXXXXXXXXXXXXXXXXXXXXXXX"...)
	}
	for i := 0; i < n; i++ {
		v, _ := w.Get(key(i))
		scribble("Get", nil, v)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	vals, found := make([][]byte, n), make([]bool, n)
	w.GetBatchInto(keys, vals, found, nil)
	for i := range vals {
		scribble("GetBatch", nil, vals[i])
	}
	w.Scan(nil, func(k, v []byte) bool { scribble("Scan", k, v); return true })
	w.ScanDesc(nil, func(k, v []byte) bool { scribble("ScanDesc", k, v); return true })
	for _, it := range []*Iter{w.NewIter(nil), w.NewIterDesc(nil)} {
		for it.Next() {
			scribble("Iter", it.Key(), it.Value())
		}
	}
	i := 0
	w.Scan(nil, func(k, v []byte) bool {
		if !bytes.Equal(k, key(i)) || !bytes.Equal(v, valOf(i)) {
			t.Fatalf("item %d reads back %q=%q after the appends", i, k, v)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("scan saw %d items, want %d", i, n)
	}
}

// TestArenaGarbageBounded is the guard for overwrite and delete garbage,
// which the benchmark's space figure (taken right after set-up) cannot
// see: after every value is overwritten 20 times with sizes alternating
// between 16 and 48 bytes and a quarter of the keys is deleted and
// reinserted, the leaf arenas hold at most their compaction headroom (plus
// size-class rounding) beyond the live bytes, and the live heap stays
// within 1.5x of its post-load figure.
func TestArenaGarbageBounded(t *testing.T) {
	const n = 50_000
	keys := keyset.GenAz1(n, 7)
	var ms runtime.MemStats
	heap := func() float64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	w := New(DefaultOptions())
	for _, k := range keys {
		w.Set(k, make([]byte, 32))
	}
	loaded := (heap() - before) / n
	for round := 0; round < 20; round++ {
		v := make([]byte, 16+32*(round%2))
		for _, k := range keys {
			v[0]++
			w.Set(k, v)
		}
	}
	for i := 0; i < n; i += 4 {
		w.Del(keys[i])
	}
	for i := 0; i < n; i += 4 {
		w.Set(keys[i], make([]byte, 32))
	}
	churned := (heap() - before) / n
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	t.Logf("live heap %.1f B/key after load, %.1f after churn; arenas %d B for %d live B (%.2fx), %d leaves",
		loaded, churned, st.ArenaBytes, st.ArenaLiveBytes, float64(st.ArenaBytes)/float64(st.ArenaLiveBytes), st.Leaves)
	// A compacted arena holds its live bytes, the appends that triggered
	// it and 1/compactHeadroom of room, rounded up to a size class (at
	// most 1/8 more).
	if limit := float64(st.ArenaLiveBytes) * (1 + 1.0/compactHeadroom) * 9 / 8; float64(st.ArenaBytes) > limit {
		t.Errorf("arenas hold %d B for %d live B, over the headroom rule's %.0f B", st.ArenaBytes, st.ArenaLiveBytes, limit)
	}
	if !testsupport.RaceEnabled && churned > 1.5*loaded {
		t.Errorf("live heap grew from %.1f to %.1f B/key under overwrites and churn, over 1.5x", loaded, churned)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(w)
}

// versioned builds the value a writer stores in generation ver of key:
// the key's hash, the version, and a filler whose length grows with the
// version, so an overwrite always outgrows the last one and keeps forcing
// the leaf's arena to move.
func versioned(key []byte, ver uint32) []byte {
	v := make([]byte, 8, 8+ver%512)
	binary.LittleEndian.PutUint32(v, crc32.ChecksumIEEE(key))
	binary.LittleEndian.PutUint32(v[4:], ver)
	for len(v) < cap(v) {
		v = append(v, byte(ver))
	}
	return v
}

// checkVersioned reports whether v is a value versioned wrote for key.
func checkVersioned(key, v []byte) bool {
	if len(v) < 8 || binary.LittleEndian.Uint32(v) != crc32.ChecksumIEEE(key) {
		return false
	}
	ver := binary.LittleEndian.Uint32(v[4:])
	return bytes.Equal(v, versioned(key, ver))
}

// TestCompactionUnderReaders runs lock-free Get, GetBatch and ascending and
// descending scans against writers that keep moving a few hot leaves to
// fresh arenas — growing values force growth and compaction on every
// round, and inserts and deletes of neighbouring keys add splits and
// merges. Every value read must be one a writer stored for that key, and
// every scan strictly ordered. Run with -race: the reader rule must keep
// every lock-free read of a moving arena race-free.
func TestCompactionUnderReaders(t *testing.T) {
	w := New(smallOpts())
	const hot = 48
	hotKey := func(i int) []byte { return []byte(fmt.Sprintf("hot-%03d", i)) }
	for i := 0; i < hot; i++ {
		w.Set(hotKey(i), versioned(hotKey(i), 0))
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for ver := uint32(1); !stop.Load(); ver++ {
				k := hotKey(r.Intn(hot))
				w.Set(k, versioned(k, ver))
				churn := []byte(fmt.Sprintf("hot-%03d-%d-%03d", r.Intn(hot), g, r.Intn(64)))
				if r.Intn(2) == 0 {
					w.Set(churn, versioned(churn, ver))
				} else {
					w.Del(churn)
				}
			}
		}(g)
	}
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rd := w.NewReader()
			defer rd.Close()
			r := rand.New(rand.NewSource(int64(100 + g)))
			keys := make([][]byte, 16)
			vals, found := make([][]byte, 16), make([]bool, 16)
			for i := 0; i < 3000 && !stop.Load(); i++ {
				switch i % 4 {
				case 0:
					k := hotKey(r.Intn(hot))
					if v, ok := rd.Get(k); !ok || !checkVersioned(k, v) {
						fail("Get(%s) = %q, %v", k, v, ok)
					}
				case 1:
					for j := range keys {
						keys[j] = hotKey(r.Intn(hot))
					}
					rd.GetBatchInto(keys, vals, found, nil)
					for j := range keys {
						if !found[j] || !checkVersioned(keys[j], vals[j]) {
							fail("GetBatch(%s) = %q, %v", keys[j], vals[j], found[j])
						}
					}
				default:
					var prev []byte
					desc := i%4 == 3
					visit := func(k, v []byte) bool {
						if prev != nil {
							if c := bytes.Compare(prev, k); (!desc && c >= 0) || (desc && c <= 0) {
								fail("scan (desc=%v) not strictly ordered: %q then %q", desc, prev, k)
							}
						}
						if !checkVersioned(k, v) {
							fail("scan read %q = %q", k, v)
						}
						prev = k
						return !stop.Load()
					}
					if desc {
						rd.ScanDesc(nil, visit)
					} else {
						rd.Scan(nil, visit)
					}
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

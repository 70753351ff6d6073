package wormhole

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// ranger is the bounded-read surface Index, Sharded and Follower share.
type ranger interface {
	RangeAsc(start []byte, limit int) (keys, vals [][]byte)
	RangeDesc(start []byte, limit int) (keys, vals [][]byte)
	Scan(start []byte, fn func(key, val []byte) bool)
}

func rangeKey(i int) []byte { return []byte(fmt.Sprintf("r%03d", i)) }
func rangeVal(i int) []byte { return []byte(fmt.Sprintf("value-%03d", i)) }

// rangers returns an Index, a 4-shard Sharded and a converged Follower of
// a 2-shard leader, each holding rangeKey(i) -> rangeVal(i) for i < n.
func rangers(t *testing.T, n int) map[string]ranger {
	t.Helper()
	idx, sh := New(), NewSharded(ShardedConfig{Shards: 4})
	leader, addr := startLeader(t)
	for i := 0; i < n; i++ {
		idx.Set(rangeKey(i), rangeVal(i))
		sh.Set(rangeKey(i), rangeVal(i))
		leader.Set(rangeKey(i), rangeVal(i))
	}
	f, err := Replicate(FollowerConfig{Leader: addr, AckInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	for deadline := time.Now().Add(10 * time.Second); f.Count() != int64(n); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d/%d keys", f.Count(), n)
		}
	}
	return map[string]ranger{"Index": idx, "Sharded": sh, "Follower": f}
}

// TestRangeAsc checks RangeAsc and RangeDesc on Index, Sharded and
// Follower: the window each start and limit select (limits of 0, 1 and
// past the end, present and absent starts, a nil start in both
// directions), keys that are copies, and values with cap == len, so that
// appending to any result leaves the stored items as they were.
func TestRangeAsc(t *testing.T) {
	const n = 100
	cases := []struct {
		start    []byte
		limit    int
		desc     bool
		from, to int // expected items, from..to inclusive; to < 0: none
	}{
		{rangeKey(50), 10, false, 50, 59},
		{rangeKey(95), 10, false, 95, 99},
		{[]byte("r0505"), 3, false, 51, 53},
		{nil, 1, false, 0, 0},
		{nil, 0, false, 0, -1},
		{rangeKey(50), -1, false, 0, -1},
		{nil, n + 50, false, 0, n - 1},
		{[]byte("s"), 5, false, 0, -1},
		{rangeKey(50), 10, true, 50, 41},
		{rangeKey(4), 10, true, 4, 0},
		{[]byte("r0505"), 3, true, 50, 48},
		{nil, 1, true, n - 1, n - 1},
		{nil, 0, true, 0, -1},
		{nil, n + 50, true, n - 1, 0},
		{[]byte("a"), 5, true, 0, -1},
	}
	for name, r := range rangers(t, n) {
		for _, c := range cases {
			rangeFn, dir := r.RangeAsc, "RangeAsc"
			if c.desc {
				rangeFn, dir = r.RangeDesc, "RangeDesc"
			}
			keys, vals := rangeFn(c.start, c.limit)
			var want []int
			switch {
			case c.to < 0:
			case c.desc:
				for i := c.from; i >= c.to; i-- {
					want = append(want, i)
				}
			default:
				for i := c.from; i <= c.to; i++ {
					want = append(want, i)
				}
			}
			if len(keys) != len(want) || len(vals) != len(want) {
				t.Fatalf("%s.%s(%q, %d): %d keys, %d values, want %d", name, dir, c.start, c.limit, len(keys), len(vals), len(want))
			}
			for j, i := range want {
				if !bytes.Equal(keys[j], rangeKey(i)) || !bytes.Equal(vals[j], rangeVal(i)) {
					t.Fatalf("%s.%s(%q, %d)[%d] = %q=%q, want %q=%q", name, dir, c.start, c.limit, j, keys[j], vals[j], rangeKey(i), rangeVal(i))
				}
				if cap(keys[j]) != len(keys[j]) || cap(vals[j]) != len(vals[j]) {
					t.Fatalf("%s.%s: key cap %d len %d, value cap %d len %d", name, dir, cap(keys[j]), len(keys[j]), cap(vals[j]), len(vals[j]))
				}
				_ = append(vals[j], "XXXXXXXXXXXXXXXXXXXXXXXX"...)
				_ = append(keys[j], "XXXXXXXXXXXXXXXXXXXXXXXX"...)
				keys[j][0] = 'X' // a copy: the stored key must not change
			}
		}
		i := 0
		r.Scan(nil, func(k, v []byte) bool {
			if !bytes.Equal(k, rangeKey(i)) || !bytes.Equal(v, rangeVal(i)) {
				t.Fatalf("%s: item %d reads back %q=%q after the writes to results", name, i, k, v)
			}
			i++
			return true
		})
		if i != n {
			t.Fatalf("%s: %d items after the writes to results, want %d", name, i, n)
		}
	}
}

// TestMinMax checks Index.Min and Index.Max: nothing on an empty index,
// then the smallest and largest key as cap-clipped copies.
func TestMinMax(t *testing.T) {
	ix := NewConfig(Config{LeafCap: 8})
	if _, _, ok := ix.Min(); ok {
		t.Fatal("Min on empty index returned ok")
	}
	if _, _, ok := ix.Max(); ok {
		t.Fatal("Max on empty index returned ok")
	}
	for i := 100; i < 200; i++ {
		ix.Set([]byte(fmt.Sprintf("m%d", i)), rangeVal(i))
	}
	for _, c := range []struct {
		name string
		get  func() ([]byte, []byte, bool)
		i    int
	}{{"Min", ix.Min, 100}, {"Max", ix.Max, 199}} {
		k, v, ok := c.get()
		if !ok || string(k) != fmt.Sprintf("m%d", c.i) || !bytes.Equal(v, rangeVal(c.i)) {
			t.Fatalf("%s = %q, %q, %v", c.name, k, v, ok)
		}
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("%s key cap %d len %d, value cap %d len %d", c.name, cap(k), len(k), cap(v), len(v))
		}
		k[0] = 'X'
		if _, ok := ix.Get([]byte(fmt.Sprintf("m%d", c.i))); !ok {
			t.Fatalf("writing to %s's key changed the index", c.name)
		}
	}
}

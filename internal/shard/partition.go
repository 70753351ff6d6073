package shard

import (
	"bytes"
	"sort"
)

// Partitioner maps keys onto shards by range: shard i owns the half-open
// key interval [bounds[i-1], bounds[i]), with the first and last shards
// unbounded below and above. Boundaries are immutable after construction,
// so routing needs no synchronization and a cross-shard scan is a plain
// concatenation of per-shard scans.
type Partitioner struct {
	bounds [][]byte // strictly increasing; len = shards-1
}

// NewUniform returns a partitioner that cuts the byte keyspace into n
// equal-width ranges using two-byte boundaries. It is the fallback when no
// key sample is available; skewed keysets (e.g. all-ASCII URLs) should use
// FromSample instead.
func NewUniform(n int) *Partitioner {
	if n < 1 {
		n = 1
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		v := uint32(i) * 65536 / uint32(n)
		b := []byte{byte(v >> 8), byte(v)}
		if len(bounds) > 0 && bytes.Equal(bounds[len(bounds)-1], b) {
			continue
		}
		bounds = append(bounds, b)
	}
	return &Partitioner{bounds: bounds}
}

// FromSample derives boundaries from a sample of expected keys: the sample
// is sorted and cut at n-quantiles, and each cut key is shortened to its
// minimal prefix that still orders strictly above its left neighbor — the
// shortest-separator rule Wormhole's leaf anchors follow (§2.2). A nil or
// tiny sample falls back to NewUniform.
func FromSample(n int, sample [][]byte) *Partitioner {
	if n < 2 || len(sample) < 2*n {
		return NewUniform(n)
	}
	s := make([][]byte, len(sample))
	copy(s, sample)
	sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 })
	// Drop duplicates so quantile neighbors are strictly ordered.
	uniq := s[:1]
	for _, k := range s[1:] {
		if !bytes.Equal(uniq[len(uniq)-1], k) {
			uniq = append(uniq, k)
		}
	}
	if len(uniq) < 2*n {
		return NewUniform(n)
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		at := i * len(uniq) / n
		sep := shortestSeparator(uniq[at-1], uniq[at])
		if len(bounds) > 0 && bytes.Compare(bounds[len(bounds)-1], sep) >= 0 {
			continue
		}
		bounds = append(bounds, sep)
	}
	return &Partitioner{bounds: bounds}
}

// shortestSeparator returns the shortest prefix of hi that still compares
// strictly above lo; lo must order strictly below hi. The shard it labels
// then covers every key >= that prefix, exactly as a leaf anchor does.
func shortestSeparator(lo, hi []byte) []byte {
	for l := 1; l < len(hi); l++ {
		if p := hi[:l]; bytes.Compare(p, lo) > 0 {
			return append([]byte(nil), p...)
		}
	}
	return append([]byte(nil), hi...)
}

// NewExplicit builds a partitioner from caller-chosen boundary keys (the
// cmd/whkv -bounds flag). Boundaries are sorted and deduplicated; n
// boundaries yield n+1 shards.
func NewExplicit(bounds [][]byte) *Partitioner {
	s := make([][]byte, 0, len(bounds))
	for _, b := range bounds {
		if len(b) == 0 {
			continue // an empty boundary would leave shard 0 unreachable
		}
		s = append(s, append([]byte(nil), b...))
	}
	sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 })
	uniq := s[:0]
	for _, b := range s {
		if len(uniq) == 0 || !bytes.Equal(uniq[len(uniq)-1], b) {
			uniq = append(uniq, b)
		}
	}
	return &Partitioner{bounds: uniq}
}

// NumShards returns the number of partitions.
func (p *Partitioner) NumShards() int { return len(p.bounds) + 1 }

// Locate returns the shard that owns key: the number of boundaries <= key.
func (p *Partitioner) Locate(key []byte) int {
	return sort.Search(len(p.bounds), func(i int) bool {
		return bytes.Compare(p.bounds[i], key) > 0
	})
}

// Bounds returns the boundary keys (shared slice headers; do not mutate).
func (p *Partitioner) Bounds() [][]byte { return p.bounds }

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/repro/wormhole/internal/keyset"
)

// rng is a xorshift64* generator. Each generator goroutine owns one, so
// drawing the op stream shares no state.
type rng struct{ s uint64 }

// newRng derives an independent stream from (seed, lane) with a
// splitmix64 step, so nearby seeds and lanes do not correlate.
func newRng(seed int64, lane int) *rng {
	z := uint64(seed) + uint64(lane+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.float() * float64(n)) }

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta,
// exactly, by inverting the cumulative distribution. A draw is a binary
// search, which only the pre-drawing of op streams pays.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) rank(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// opStream is one generator's pre-drawn operations: kind[i] on key index
// idx[i]. Workers walk it cyclically, so choosing a key at run time is two
// sequential loads, and a traced replay sees exactly the ops of the first
// pass. Its length is a power of two.
type opStream struct {
	idx  []uint32
	kind []uint8
}

// genStream draws length ops over n keys: kind k with probability
// mix[k], the key uniform or zipfian(0.99).
func genStream(r *rng, n, length int, z *zipf, mix []float64) opStream {
	s := opStream{idx: make([]uint32, length), kind: make([]uint8, length)}
	for i := range s.idx {
		u, k := r.float(), 0
		for k < len(mix)-1 && u >= mix[k] {
			u -= mix[k]
			k++
		}
		s.kind[i] = uint8(k)
		if z != nil {
			s.idx[i] = uint32(z.rank(r.float()))
		} else {
			s.idx[i] = uint32(r.intn(n))
		}
	}
	return s
}

func streamChecksum(streams []opStream) string {
	h := fnv.New64a()
	var b [5]byte
	for _, s := range streams {
		for i := range s.idx {
			binary.LittleEndian.PutUint32(b[:4], s.idx[i])
			b[4] = s.kind[i]
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func keysetChecksum(keys [][]byte) string {
	h := fnv.New64a()
	var b [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(b[:], uint32(len(k)))
		h.Write(b[:])
		h.Write(k)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// keyHash is the 8-byte tag every stored value starts with, so any read
// can be checked against the key it was asked for.
func keyHash(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

const valLen = 32

// noRank marks a churn (non-stable) key's value in the scan workload.
const noRank = math.MaxUint64

// putVal fills a 32-byte value: key tag, then a second word the workload
// defines (a write version, or the key's sorted rank).
func putVal(v []byte, tag, word uint64) {
	binary.LittleEndian.PutUint64(v, tag)
	binary.LittleEndian.PutUint64(v[8:], word)
}

func newVal(tag, word uint64) []byte {
	v := make([]byte, valLen)
	putVal(v, tag, word)
	return v
}

func valTag(v []byte) uint64  { return binary.LittleEndian.Uint64(v) }
func valWord(v []byte) uint64 { return binary.LittleEndian.Uint64(v[8:]) }

// dataset is everything a workload's generators need, derived from the
// seed alone: stable keys (always present), reserve keys (inserted and
// deleted by churn), their tags, and one op stream per generator.
type dataset struct {
	keys    [][]byte // stable keys first, then the reserve
	stable  int
	tags    []uint64
	streams []opStream
	// sorted lists the stable keys' indices in key order and rankOf is
	// its inverse: the scan oracle. Nil unless the workload scans.
	sorted []uint32
	rankOf []uint32
}

func (d *dataset) reserve() [][]byte { return d.keys[d.stable:] }

func genDataset(sp *spec, seed int64, gens, streamLen int) (*dataset, error) {
	ks, ok := keyset.Lookup(sp.keyset)
	if !ok {
		return nil, fmt.Errorf("unknown keyset %q", sp.keyset)
	}
	d := &dataset{keys: ks.Gen(sp.keys+sp.reserve, seed), stable: sp.keys}
	d.tags = make([]uint64, len(d.keys))
	for i, k := range d.keys {
		d.tags[i] = keyHash(k)
	}
	var z *zipf
	if sp.zipfian {
		z = newZipf(sp.keys, 0.99)
	}
	for g := 0; g < gens; g++ {
		d.streams = append(d.streams, genStream(newRng(seed, g), sp.keys, streamLen, z, sp.mix))
	}
	if sp.scans {
		d.sorted = make([]uint32, d.stable)
		for i := range d.sorted {
			d.sorted[i] = uint32(i)
		}
		sort.Slice(d.sorted, func(a, b int) bool {
			return string(d.keys[d.sorted[a]]) < string(d.keys[d.sorted[b]])
		})
		d.rankOf = make([]uint32, d.stable)
		for r, i := range d.sorted {
			d.rankOf[i] = uint32(r)
		}
	}
	return d, nil
}

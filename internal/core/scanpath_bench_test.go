package core

import (
	"testing"
)

// shuffledBenchKeys returns benchKeys in a deterministic shuffled order,
// so loaded leaves carry realistic half-full inline tails (ascending
// insertion would leave every non-rightmost leaf's tail empty).
func shuffledBenchKeys(n int) [][]byte {
	keys := benchKeys(n)
	r := uint64(12345)
	for i := len(keys) - 1; i > 0; i-- {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		j := int(r % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// BenchmarkScan100 measures the seek + 100-key chunked scan on the
// concurrent index (the Figure 18 shape) through the lock-free path.
func BenchmarkScan100(b *testing.B) {
	w := New(DefaultOptions())
	keys := shuffledBenchKeys(200000)
	for _, k := range keys {
		w.Set(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		w.Scan(keys[(i*2654435761)%len(keys)], func(_, _ []byte) bool {
			cnt++
			return cnt < 100
		})
	}
}

// BenchmarkIter100 measures pull-cursor setup plus 100 draws.
func BenchmarkIter100(b *testing.B) {
	w := New(DefaultOptions())
	keys := shuffledBenchKeys(200000)
	for _, k := range keys {
		w.Set(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := w.NewIter(keys[(i*2654435761)%len(keys)])
		for j := 0; j < 100 && it.Next(); j++ {
		}
		it.Close()
	}
}

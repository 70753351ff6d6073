package main

import (
	"math"
	"testing"
)

func quickSpec(name string) *spec {
	q := *lookupSpec(name)
	q.keys, q.reserve, q.traceOps = 2000, q.reserve/100, 1000
	return &q
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, sp := range specs {
		q := quickSpec(sp.name)
		a, err := genDataset(q, 42, 2, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genDataset(q, 42, 2, 1<<10)
		c, _ := genDataset(q, 43, 2, 1<<10)
		if streamChecksum(a.streams) != streamChecksum(b.streams) || keysetChecksum(a.keys) != keysetChecksum(b.keys) {
			t.Errorf("%s: the same seed gave different inputs", sp.name)
		}
		if streamChecksum(a.streams) == streamChecksum(c.streams) || keysetChecksum(a.keys) == keysetChecksum(c.keys) {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", sp.name)
		}
		if streamChecksum(a.streams[:1]) == streamChecksum(a.streams[1:]) {
			t.Errorf("%s: both generators draw the same stream", sp.name)
		}
	}
}

func TestStreamMix(t *testing.T) {
	mix := []float64{0.5, 0.4, 0.05, 0.05}
	s := genStream(newRng(1, 0), 1000, 1<<18, nil, mix)
	got := make([]float64, len(mix))
	for i, k := range s.kind {
		got[k]++
		if s.idx[i] >= 1000 {
			t.Fatalf("key index %d out of range", s.idx[i])
		}
	}
	for k, want := range mix {
		if f := got[k] / float64(len(s.kind)); math.Abs(f-want) > 0.01 {
			t.Errorf("kind %d: share %.3f, want %.2f", k, f, want)
		}
	}
}

// The sampler must follow the rank-frequency law it claims: rank i drawn
// in proportion to 1/(i+1)^0.99.
func TestZipfRankFrequency(t *testing.T) {
	const n, draws, theta = 10000, 2_000_000, 0.99
	z := newZipf(n, theta)
	r := newRng(7, 0)
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(r.float())]++
	}
	zeta := func(n int) (z float64) {
		for i := 1; i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	zn := zeta(n)
	for _, rank := range []int{0, 1, 2, 9, 99} {
		want := 1 / math.Pow(float64(rank+1), theta) / zn
		if got := counts[rank] / draws; math.Abs(got-want)/want > 0.05 {
			t.Errorf("rank %d: frequency %.5f, want %.5f", rank, got, want)
		}
	}
	var head float64
	for _, c := range counts[:100] {
		head += c
	}
	if got, want := head/draws, zeta(100)/zn; math.Abs(got-want) > 0.01 {
		t.Errorf("top 100 ranks hold %.3f of the draws, want %.3f", got, want)
	}
}

// Choosing a key at run time must stay far below the cost of any op (the
// cheapest is a few hundred ns): it is two loads from a pre-drawn stream.
func BenchmarkKeyChoice(b *testing.B) {
	s := genStream(newRng(1, 0), 500_000, 1<<20, newZipf(500_000, 0.99), []float64{0.5, 0.5})
	c := newCursor(&s)
	var sink uint32
	for b.Loop() {
		idx, kind := c.next()
		sink += idx + uint32(kind)
	}
	_ = sink
}

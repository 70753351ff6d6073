package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func series(base, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = base + step*float64(i%5)
	}
	return v
}

func TestVerdicts(t *testing.T) {
	scale := func(v []float64, f float64) []float64 {
		o := make([]float64, len(v))
		for i := range v {
			o[i] = v[i] * f
		}
		return o
	}
	tight := series(100, 0.5, 10) // quartiles about 1% apart
	wide := series(100, 10, 10)   // quartiles about 25% apart
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"clear gain", tight, scale(tight, 1.2), "higher", "improved"},
		{"clear gain, lower is better", tight, scale(tight, 0.8), "lower", "improved"},
		{"too few pairs to claim", tight[:5], scale(tight[:5], 1.2), "higher", "unchanged"},
		{"gain inside the parent's own spread", wide, scale(wide, 1.05), "higher", "unresolved"},
		{"same", tight, tight, "higher", "unchanged"},
		{"slower within the bound", tight, scale(tight, 0.95), "higher", "unchanged"},
		{"slower beyond the bound", tight, scale(tight, 0.8), "higher", "regressed"},
		{"slower beyond the bound, lower is better", tight, scale(tight, 1.25), "lower", "regressed"},
		{"noisy and maybe slower", wide, scale(wide, 0.97), "higher", "unresolved"},
		{"a single pair", tight[:1], scale(tight[:1], 1.01), "higher", "unresolved"},
	} {
		c := &comparison{parent: tc.parent, change: tc.change, better: tc.better, bound: 0.10}
		c.judge()
		if c.verdict != tc.want {
			t.Errorf("%s: %s, want %s (wins %d losses %d)", tc.name, c.verdict, tc.want, c.wins, c.losses)
		}
	}
	c := &comparison{parent: tight, change: scale(tight, 2), better: "lower"}
	if c.judge(); c.verdict != "-" || c.losses != 10 {
		t.Errorf("a metric without a bound: verdict %q, losses %d", c.verdict, c.losses)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		res := &workloadResult{Name: "core-c-az1", EndToEnd: map[string]metricVal{
			"ops_per_s": {Value: ops, Unit: "ops/s", Better: "higher", Bound: 0.1},
		}, PerLayer: map[string]metricVal{"core.get_ns": {Value: 1e9 / ops, Unit: "ns", Better: "lower"}}}
		p := filepath.Join(dir, name)
		if err := newDocument(res).write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var args []string
	for i := 0; i < 10; i++ {
		args = append(args, write("p"+string(rune('0'+i)), 1000+float64(i)), write("c"+string(rune('0'+i)), 1300+float64(i)))
	}
	var out bytes.Buffer
	if err := compareFiles(&out, args); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ops_per_s", "10/10", "improved", "core.get_ns"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if err := compareFiles(&out, args[:3]); err == nil {
		t.Error("an odd number of files was accepted")
	}
}

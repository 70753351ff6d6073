package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// minPairs is how many (parent, change) pairs a gain needs before it can be
// claimed (choosing-metrics, section 8).
const minPairs = 10

// quartiles returns what Python's statistics.quantiles(v, n=4) returns;
// for a single value, that value three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// comparison is one (metric, workload) across all pairs.
type comparison struct {
	parent, change []float64
	better         string
	bound          float64

	medP, q1P, q3P float64
	medC, q1C, q3C float64
	wins, losses   int // pairs the change won or lost; ties count for neither
	verdict        string
}

// judge applies the rule: a gain (or a loss by the same measure) needs ten
// pairs, nine tenths of them won, and medians further apart than the
// parent's own quartiles; otherwise the change is unchanged if its median
// is within the bound, unless the runs spread wider than the bound, which
// leaves the question unresolved.
func (c *comparison) judge() {
	c.q1P, c.medP, c.q3P = quartiles(c.parent)
	c.q1C, c.medC, c.q3C = quartiles(c.change)
	sign := 1.0 // positive gap: the change is better
	if c.better == "lower" {
		sign = -1
	}
	for i := range c.parent {
		switch d := sign * (c.change[i] - c.parent[i]); {
		case d > 0:
			c.wins++
		case d < 0:
			c.losses++
		}
	}
	if c.bound == 0 { // a per-layer metric: reported, not judged
		c.verdict = "-"
		return
	}
	pairs := len(c.parent)
	gap := sign * (c.medC - c.medP)
	iqrP := c.q3P - c.q1P
	decisive := func(won int) bool {
		return pairs >= minPairs && float64(won) >= 0.9*float64(pairs) && math.Abs(gap) > iqrP
	}
	spread := math.Inf(1) // one pair says nothing about spread
	if pairs > 1 && c.medP != 0 && c.medC != 0 {
		spread = max(iqrP/math.Abs(c.medP), (c.q3C-c.q1C)/math.Abs(c.medC))
	}
	worse := 0.0
	if c.medP != 0 {
		worse = -gap / math.Abs(c.medP)
	}
	switch {
	case gap > 0 && decisive(c.wins):
		c.verdict = "improved"
	case worse > c.bound && (decisive(c.losses) || spread <= c.bound):
		c.verdict = "regressed"
	case worse > c.bound || spread > c.bound:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
}

// compareFiles reads result files given as parent change [parent change
// ...] and prints one row per metric and workload.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) == 0 || len(paths)%2 != 0 {
		return errors.New("-compare takes result files in pairs: parent change [parent change ...]")
	}
	type key struct{ workload, metric string }
	cmp := map[key]*comparison{}
	units := map[key]string{}
	for i := 0; i < len(paths); i += 2 {
		parent, err := readDocument(paths[i])
		if err != nil {
			return err
		}
		change, err := readDocument(paths[i+1])
		if err != nil {
			return err
		}
		for _, pw := range parent.Workloads {
			for _, cw := range change.Workloads {
				if pw.Name != cw.Name {
					continue
				}
				for _, side := range []struct{ p, c map[string]metricVal }{{pw.EndToEnd, cw.EndToEnd}, {pw.PerLayer, cw.PerLayer}} {
					for name, pm := range side.p {
						cm, ok := side.c[name]
						if !ok {
							continue
						}
						k := key{pw.Name, name}
						if cmp[k] == nil {
							cmp[k] = &comparison{better: pm.Better, bound: pm.Bound}
							units[k] = pm.Unit
						}
						cmp[k].parent = append(cmp[k].parent, pm.Value)
						cmp[k].change = append(cmp[k].change, cm.Value)
					}
				}
			}
		}
	}
	if len(cmp) == 0 {
		return errors.New("the files share no workload and metric")
	}
	fmt.Fprintf(w, "%-14s %-26s %-6s %38s %38s %7s %6s %s\n", "workload", "metric", "unit",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "bound", "verdict")
	for _, sp := range specs {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			c := cmp[key{sp.name, def.Name}]
			if c == nil {
				continue
			}
			c.judge()
			fmt.Fprintf(w, "%-14s %-26s %-6s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g] %4d/%-2d %6.2f %s\n",
				sp.name, def.Name, units[key{sp.name, def.Name}], c.medP, c.q1P, c.q3P, c.medC, c.q1C, c.q3C,
				c.wins, len(c.parent), c.bound, c.verdict)
		}
	}
	return nil
}

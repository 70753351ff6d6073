package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/netkv"
)

// scanData is a small scan workload dataset and its pairs in key order,
// valued as core-e-az1 values them.
func scanData(t *testing.T) (*dataset, [][2][]byte) {
	d, err := genDataset(quickSpec("core-e-az1"), 42, 1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2][]byte
	for rank, i := range d.sorted {
		pairs = append(pairs, [2][]byte{d.keys[i], newVal(d.tags[i], uint64(rank))})
	}
	return d, pairs
}

func feed(c *scanCheck, pairs [][2][]byte) string {
	for _, p := range pairs {
		if !c.visit(p[0], p[1]) {
			break
		}
	}
	return c.end()
}

func reversed(p [][2][]byte) [][2][]byte {
	o := make([][2][]byte, len(p))
	for i := range p {
		o[len(p)-1-i] = p[i]
	}
	return o
}

func TestScanOracle(t *testing.T) {
	d, pairs := scanData(t)
	c := &scanCheck{d: d}
	churn := func(k []byte) [2][]byte { return [2][]byte{k, newVal(keyHash(k), noRank)} }
	between := func(a, b []byte) []byte { // a key strictly between two adjacent stable keys
		k := append(bytes.Clone(a), 0)
		if bytes.Compare(k, b) >= 0 {
			t.Fatalf("no room between %q and %q", a, b)
		}
		return k
	}

	c.begin(100, false)
	if bad := feed(c, pairs[100:]); bad != "" {
		t.Errorf("a correct ascending scan: %s", bad)
	}
	c.begin(100, true)
	if bad := feed(c, reversed(pairs[:101])); bad != "" {
		t.Errorf("a correct descending scan: %s", bad)
	}
	withChurn := append([][2][]byte{pairs[100], churn(between(pairs[100][0], pairs[101][0]))}, pairs[101:]...)
	c.begin(100, false)
	if bad := feed(c, withChurn); bad != "" {
		t.Errorf("a churn key in its place: %s", bad)
	}

	for name, scan := range map[string][][2][]byte{
		"skips a stable key": append([][2][]byte{pairs[100]}, pairs[102:]...),
		"out of order":       append([][2][]byte{pairs[101], pairs[100]}, pairs[102:]...),
		"repeats a key":      append([][2][]byte{pairs[100], pairs[100]}, pairs[101:]...),
		"ends early":         pairs[100:120],
		"wrong value":        append([][2][]byte{{pairs[100][0], pairs[101][1]}}, pairs[101:]...),
		"churn key hides a skipped stable key": append([][2][]byte{pairs[100],
			churn(between(pairs[101][0], pairs[102][0]))}, pairs[102:]...),
		"churn key out of order": append([][2][]byte{pairs[100], pairs[101],
			churn(between(pairs[100][0], pairs[101][0]))}, pairs[102:]...),
	} {
		c.begin(100, false)
		if bad := feed(c, scan); bad == "" {
			t.Errorf("a scan that %s passed", name)
		}
	}
	c.begin(100, true)
	if bad := feed(c, reversed(append(bytes2(pairs[:99]), pairs[100]))); bad == "" {
		t.Error("a descending scan that skips a stable key passed")
	}
}

func bytes2(p [][2][]byte) [][2][]byte { return append([][2][]byte(nil), p...) }

// faulty serves an index that has lost its most requested key and returns
// one scan pair out of order.
type faulty struct {
	index.Index
	lost []byte
}

func (f *faulty) Get(k []byte) ([]byte, bool) {
	if bytes.Equal(k, f.lost) {
		return nil, false
	}
	return f.Index.Get(k)
}

func (f *faulty) Scan(start []byte, fn func(k, v []byte) bool) {
	var held [][]byte
	f.Index.(index.Ordered).Scan(start, func(k, v []byte) bool {
		if held == nil {
			held = [][]byte{k, v} // deliver the first pair after the second
			return true
		}
		if held[0] != nil {
			if !fn(k, v) || !fn(held[0], held[1]) {
				return false
			}
			held[0] = nil
			return true
		}
		return fn(k, v)
	})
}

// The benchmark must notice a store that answers wrongly: failures are
// counted, the summary says correct=false and the exit code is not 0.
func TestFaultyStoreFails(t *testing.T) {
	info, _ := index.Lookup("wormhole")
	small := *lookupSpec("net-b-small")
	small.name = "faulty-net"
	small.build = func(r *run) (instance, error) {
		f := &faulty{Index: info.New(), lost: r.data.keys[0]} // rank 0: the hottest key
		n := &netInst{r: r, get: f.Get}
		if err := n.serve(f, netkv.ServerOptions{}); err != nil {
			return nil, err
		}
		return n, n.load()
	}
	specs = append(specs, &small)
	defer func() { specs = specs[:len(specs)-1] }()

	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", "faulty-net", "-quick", "-seconds", "0.4", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 from a run against a faulty store\n%s%s", stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int64
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct || last.Failed == 0 || last.Failed >= last.Attempted {
		t.Errorf("summary %+v, want correct=false and 0 < failed < attempted", last)
	}
	if !strings.Contains(stdout.String(), "replay: -workload faulty-net -seed 42") {
		t.Errorf("no replay line in:\n%s", stdout.String())
	}

	// The scan oracle against the same stub.
	d, pairs := scanData(t)
	f := &faulty{Index: info.New()}
	for _, p := range pairs {
		f.Set(p[0], p[1])
	}
	c := &scanCheck{d: d}
	start := c.begin(100, false)
	f.Scan(start, c.visit)
	if bad := c.end(); bad == "" {
		t.Error("a scan with two pairs swapped passed the oracle")
	}
	start = c.begin(100, false)
	f.Index.(index.Ordered).Scan(start, c.visit)
	if bad := c.end(); bad != "" {
		t.Errorf("the stub's inner index fails the oracle: %s", bad)
	}
}

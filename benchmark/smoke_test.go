package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

type jsonSpan struct {
	ID, Parent, Req uint32
	Name            string
	Start, End      int64
}

// Every workload, at smoke sizes: all metrics present and sane, no failed
// operation, well-formed spans, and result files -compare can read.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	doc := newDocument()
	for _, sp := range specs {
		e2e, err := runWorkload(config{workload: sp.name, seed: 42, seconds: 0.8, quick: true, out: out})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		traced, err := runWorkload(config{workload: sp.name, seed: 42, seconds: 0.8, quick: true, out: out, trace: true})
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		for _, res := range []*workloadResult{e2e, traced} {
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.FailedFrac != 0 {
				t.Errorf("%s: attempted %d failed %d: %v", sp.name, res.Attempted, res.Failed, res.Failures)
			}
		}
		if e2e.OpStreamChecksum != traced.OpStreamChecksum || e2e.KeysetChecksum != traced.KeysetChecksum {
			t.Errorf("%s: the traced run used other inputs", sp.name)
		}
		for _, def := range endToEnd {
			m, ok := e2e.EndToEnd[def.Name]
			if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != def.Unit || len(m.Rounds) == 0 {
				t.Errorf("%s: %s = %+v", sp.name, def.Name, m)
			}
		}
		must := map[string]bool{"runtime.allocs_per_op": true}
		for _, name := range sp.layers {
			must[name] = true
		}
		for _, def := range perLayer {
			m, ok := traced.PerLayer[def.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.Unit {
				t.Errorf("%s: %s = %+v", sp.name, def.Name, m)
			}
			if must[def.Name] && !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", sp.name, def.Name, m.Value)
			}
			delete(must, def.Name)
		}
		for name := range must {
			t.Errorf("%s: layer metric %s is not defined", sp.name, name)
		}
		var shares float64
		for _, l := range []string{"core", "netkv", "shard", "wal", "vfs"} {
			shares += traced.PerLayer[l+".self_share"].Value
		}
		if math.Abs(shares-1) > 0.02 {
			t.Errorf("%s: layer shares sum to %.4f", sp.name, shares)
		}
		checkSpans(t, sp.name, traced.TraceFile)
		e2e.PerLayer = traced.PerLayer
		doc.Workloads = append(doc.Workloads, e2e)
	}

	path := filepath.Join(out, "all.json")
	if err := doc.write(path); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := compareFiles(&table, []string{path, path}); err != nil {
		t.Fatal(err)
	}
	if rows := bytes.Count(table.Bytes(), []byte("\n")); rows != 1+len(specs)*(len(endToEnd)+len(perLayer)) {
		t.Errorf("-compare printed %d rows:\n%s", rows, table.String())
	}
	b, _ := os.ReadFile(path)
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if claim, ok := raw["claim"]; !ok || claim != nil {
		t.Errorf(`result file: "claim" = %v, want null`, claim)
	}
}

func checkSpans(t *testing.T, name, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []jsonSpan }
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[uint32]jsonSpan{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	var roots, children int
	for _, s := range tf.Spans {
		switch {
		case s.End < s.Start:
			t.Errorf("%s: span %d ends before it starts", name, s.ID)
		case s.Name == "client.batch":
			roots++
			if s.Parent != 0 || s.Req != s.ID {
				t.Errorf("%s: root %d has parent %d req %d", name, s.ID, s.Parent, s.Req)
			}
		default:
			children++
			p, ok := byID[s.Parent]
			if !ok || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d (%s) [%d,%d] not inside parent %d [%d,%d] of req %d", name, s.ID, s.Name, s.Start, s.End, s.Parent, p.Start, p.End, p.Req)
				return
			}
		}
	}
	if roots == 0 || children < roots {
		t.Errorf("%s: %d roots, %d children", name, roots, children)
	}
}

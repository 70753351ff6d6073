package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; the
// tables in spec.go are what the program reports. They must agree.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: %+v\nspec.go: %+v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer: %+v\nspec.go: %+v", bm.PerLayer, perLayer)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads, spec.go has %d", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q", i, w.Name, specs[i].name)
		}
	}
	if bm.RunSeconds%rounds != 0 || bm.RunSeconds/rounds < 3 {
		t.Errorf("run_seconds %d does not give %d rounds of at least 3 s", bm.RunSeconds, rounds)
	}
	var setup *metricDef
	for i, m := range bm.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &bm.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s: %+v", setup)
	}
}

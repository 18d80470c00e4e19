package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metrics
// the program prints in step: same names, units and directions, same
// workloads.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	entries := func(ms []metric) []entry {
		var es []entry
		for _, m := range ms {
			es = append(es, entry{m.name, m.unit, m.better})
		}
		return es
	}
	if got := entries(endToEnd); !slices.Equal(got, spec.EndToEnd) {
		t.Errorf("end_to_end:\n json %v\n code %v", spec.EndToEnd, got)
	}
	if got := entries(perLayer); !slices.Equal(got, spec.PerLayer) {
		t.Errorf("per_layer:\n json %v\n code %v", spec.PerLayer, got)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}

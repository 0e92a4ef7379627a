package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and what the benchmark
// prints in step: the same metrics, units and order.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		spec []m
		code []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endUnits}, {"per_layer", spec.PerLayer, layerUnits}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.spec), len(c.code))
			continue
		}
		for i := range c.spec {
			if c.spec[i].Name != c.code[i].name || c.spec[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					c.what, i, c.spec[i].Name, c.spec[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

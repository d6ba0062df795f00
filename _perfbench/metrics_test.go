package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks a metric list against BENCHMARK.json's naming
// rules: valid, unique names and units, and a direction.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q is not valid", d.name)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q is not valid", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower, not %q", d.name, d.better)
		}
	}
	return nil
}

func TestMetricCataloguesAreValid(t *testing.T) {
	for name, defs := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
		if err := validateDefs(defs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []metricDef{
		{"_x", "s", "lower"},
		{"a b", "s", "lower"},
		{strings.Repeat("a", 65), "s", "lower"},
		{"ok", "micro seconds", "lower"},
		{"ok", "s", "faster"},
	} {
		if validateDefs([]metricDef{bad}) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if validateDefs([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}) == nil {
		t.Error("a repeated name was accepted")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and what the
// program prints in step: same workloads, same metrics, units and
// directions, in the same order.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), program has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: file %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: file %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "_perfbench" || len(f.Command) < 2 || f.Command[1] != "_perfbench/run.sh" {
		t.Errorf("command %q / paths %q do not name this directory's run.sh", f.Command, f.Paths)
	}
}

func TestRenderRejectsMissingExtraAndNonFinite(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}}
	if _, err := render(defs, map[string]float64{}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := render(defs, map[string]float64{"a": 1, "b": 2}); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := render(defs, map[string]float64{"a": math.Inf(1)}); err == nil {
		t.Error("infinite value accepted")
	}
	if out, err := render(defs, map[string]float64{"a": 1.5}); err != nil || out["a"].Value != 1.5 || out["a"].Unit != "s" {
		t.Errorf("render = %v, %v", out, err)
	}
}

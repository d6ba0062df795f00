package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateBaseline is a BENCH.json record carrying one row of every family
// compareBench gates.
func gateBaseline() benchRecord {
	return benchRecord{
		ScaleMinutes: 0.35,
		SimSeconds:   21,
		SimSecPerSec: 40,
		Mallocs:      1_000_000,
		TopoScaling: []topoScaling{
			{Rings: 16, Workers: 1, SimSecPerSec: 2, AllocsPerFrame: 50, Identical: true},
			{Rings: 16, Workers: 4, SimSecPerSec: 2, AllocsPerFrame: 50, Identical: true},
		},
		Population: []populationRow{{Rate: 4, Arrivals: 40, Admitted: 30, Rejected: 10}},
		Lint:       []lintRow{{Tier: "dim", WallSeconds: 1}},
	}
}

// TestCompareBench plants one regression per case and checks that the
// gate fails with exactly that regression's message — and that an
// identical record passes.
func TestCompareBench(t *testing.T) {
	const mallocTol, speedTol = 0.10, 0.50
	path := filepath.Join(t.TempDir(), "BENCH.baseline.json")
	data, err := json.Marshal(gateBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		plant func(*benchRecord)
		want  string // "" means the gate must pass
	}{
		{"identical", func(*benchRecord) {}, ""},
		{"mallocs growth", func(r *benchRecord) { r.Mallocs = 1_200_000 },
			"mallocs 1200000 exceeds baseline 1000000"},
		{"simsec per second drop", func(r *benchRecord) { r.SimSecPerSec = 10 },
			"sim_seconds_per_second 10.0 fell below baseline 40.0"},
		{"topo not identical", func(r *benchRecord) { r.TopoScaling[1].Identical = false },
			"16-ring mesh at 4 workers no longer bit-identical"},
		{"topo allocs per frame growth", func(r *benchRecord) { r.TopoScaling[0].AllocsPerFrame = 60 },
			"16-ring mesh at 1 workers: 60.00 allocs per forwarded frame exceeds baseline 50.00"},
		{"lint wall doubling", func(r *benchRecord) { r.Lint[0].WallSeconds = 3 },
			"lint dim tier took 3.00s, more than double the baseline 1.00s"},
		{"population drift", func(r *benchRecord) { r.Population[0].Admitted = 31 },
			"population 4/s: counts 40/31/10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := gateBaseline()
			tc.plant(&rec)
			err := compareBench(path, rec, mallocTol, speedTol)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("identical record failed the gate:\n%v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("planted regression passed the gate (want %q)", tc.want)
			}
			msg := strings.TrimSpace(err.Error())
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("want exactly one problem %q, got:\n%s", tc.want, msg)
			}
		})
	}
}

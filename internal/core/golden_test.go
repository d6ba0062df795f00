package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestE18GoldenFingerprints pins the whole engine stack — routing,
// admission, forwarding, the conservative-window schedule — against
// serial fingerprints captured before the compiled route table, the
// pooled forwarding path and the per-link windows existed. On a
// uniform-latency line the per-link lookahead recurrence collapses to
// the old global window grid and the route table reproduces the old
// per-stream BFS tie-breaks, so these bytes must never change: any
// drift means an "optimisation" silently moved an observable event.
func TestE18GoldenFingerprints(t *testing.T) {
	cases := []struct {
		golden   string
		rings    int
		duration sim.Time
	}{
		{"e18_line4_1000ms.golden", 4, sim.Second},
		{"e18_line8_1500ms.golden", 8, 1500 * sim.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			spec := E18Topology(tc.rings, SweepSeed(1991, 18), tc.duration)
			n, err := topo.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := n.Run(1).Fingerprint()
			if got != string(want) {
				t.Fatalf("serial fingerprint drifted from the pre-refactor golden %s:\n--- golden ---\n%s\n--- got ---\n%s",
					tc.golden, want, got)
			}
		})
	}
}

// e20GoldenSpec is the reduced-scale metro mesh the E20 goldens pin. The
// bursts variant adds cross-ring frame bursts and forced insertions, so
// burst hosts and per-ring purges are pinned as well as census streams.
func e20GoldenSpec(side int, dur sim.Time, bursts bool) topo.Spec {
	spec := E20Topology(side, SweepSeed(1991, 20), dur)
	if bursts {
		last := side*side - 1
		spec.Bursts = []topo.BurstSpec{
			{SrcRing: 0, DstRing: last, At: 100 * sim.Millisecond, Count: 300, PacketBytes: 1500},
			{SrcRing: last, DstRing: last, At: 200 * sim.Millisecond, Count: 40, PacketBytes: 600, Gap: sim.Millisecond},
		}
		spec.Insertions = []topo.InsertionSpec{{Ring: side, At: 300 * sim.Millisecond}}
	}
	return spec
}

// TestE20GoldenFingerprints pins the serial fingerprint of a reduced E20
// mesh — population census, background load, heterogeneous trunk links —
// byte for byte. The E18 goldens carry neither a population nor bursts.
func TestE20GoldenFingerprints(t *testing.T) {
	cases := []struct {
		golden string
		side   int
		dur    sim.Time
		bursts bool
	}{
		{"e20_side4_800ms.golden", 4, 800 * sim.Millisecond, false},
		{"e20_side3_bursts_600ms.golden", 3, 600 * sim.Millisecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			n, err := topo.Build(e20GoldenSpec(tc.side, tc.dur, tc.bursts))
			if err != nil {
				t.Fatal(err)
			}
			if got := n.Run(1).Fingerprint(); got != string(want) {
				t.Fatalf("serial fingerprint drifted from %s:\n--- golden ---\n%s\n--- got ---\n%s",
					tc.golden, want, got)
			}
		})
	}
}

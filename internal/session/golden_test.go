package session

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// renderGolden is the canonical text form of a session run the goldens
// pin: every StreamResult field, the ring counters and the playout
// latency quantiles. It is deliberately independent of Report, so a
// report-format change cannot hide a behaviour change (or fake one).
func renderGolden(r *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "session %s seed=%d elapsed=%d admitted=%d rejected=%d shed=%d departed=%d reservedEnd=%d util=%.9f\n",
		r.Config.Name, r.Config.Seed, int64(r.Elapsed), r.Admitted, r.Rejected, r.ShedN, r.Departed,
		r.ReservedBitsEnd, r.RingUtilization)
	c := r.Ring
	fmt.Fprintf(&b, "ring frames=%d bytes=%d mac=%d data=%d purges=%d purgeLost=%d notCopied=%d busy=%d tokenWaitMax=%d queueWaitMax=%d byPriority=%v insertions=%d\n",
		c.FramesSent, c.BytesSent, c.MACFrames, c.DataFrames, c.PurgeCount, c.PurgeLost, c.NotCopied,
		int64(c.BusyTime), int64(c.TokenWaitMax), int64(c.QueueWaitMax), c.ByPriority, c.InsertionSeen)
	if h := r.PlayoutLatency; h != nil {
		fmt.Fprintf(&b, "latency n=%d mean=%.9g", h.N(), h.Mean())
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			fmt.Fprintf(&b, " q%g=%.9g", q, h.Quantile(q))
		}
		b.WriteString("\n")
	}
	for i, s := range r.Streams {
		fmt.Fprintf(&b, "stream %d %s bytes=%d interval=%d class=%d admitted=%v reserved=%d reason=%q",
			i, s.Spec.Name, s.Spec.PacketBytes, int64(s.Spec.Interval), int(s.Spec.Class),
			s.Decision.Admitted, s.Decision.ReservedBits, s.Decision.Reason)
		fmt.Fprintf(&b, " shed=%v@%d arrived=%v@%d title=%d departed=%v@%d",
			s.Shed, int64(s.ShedAt), s.Arrived, int64(s.ArrivedAt), s.Title, s.Departed, int64(s.DepartedAt))
		fmt.Fprintf(&b, " sent=%d delivered=%d lost=%d gaps=%d dups=%d glitches=%d starved=%d maxbuf=%d active=%d\n",
			s.Sent, s.Delivered, s.Lost, s.Gaps, s.Duplicates, s.Glitches, int64(s.StarvedTime),
			s.MaxBufferBytes, int64(s.ActiveTime))
	}
	return b.String()
}

// goldenConfigs are the pinned runs: a churning population with
// background load, a forced insertion and a correlated storm on top of
// static streams of every class, and a free-for-all overload with no
// admission (every stream runs, none is shed).
func goldenConfigs() []goldenCase {
	pop := popConfig()
	pop.Name = "pop-storm"
	pop.Duration = 6 * sim.Second
	pop.ForceInsertionAt = 2 * sim.Second
	pop.Streams = specN(4)
	pop.Population = &workload.PopulationSpec{
		ArrivalsPerSec:  6,
		ZipfSkew:        1.1,
		Titles:          16,
		ChurnHalfLife:   2 * sim.Second,
		StormAt:         4 * sim.Second,
		StormInsertions: 2,
	}
	return []goldenCase{
		{"session_pop_storm.golden", pop},
		{"session_free_for_all.golden", Config{
			Name:             "ffa",
			Seed:             7,
			Duration:         3 * sim.Second,
			BackgroundUtil:   0.2,
			DisableAdmission: true,
			ForceInsertionAt: sim.Second,
			Streams:          specN(14),
		}},
	}
}

type goldenCase struct {
	golden string
	cfg    Config
}

// TestSessionGoldens pins whole session runs byte for byte: any drift in
// how a ring, its background load, a host pair or a CTMSP stream is
// assembled moves an event and shows up here.
func TestSessionGoldens(t *testing.T) {
	for _, tc := range goldenConfigs() {
		golden, cfg := tc.golden, tc.cfg
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderGolden(res); got != string(want) {
				t.Fatalf("session run drifted from %s:\n--- golden ---\n%s\n--- got ---\n%s", golden, want, got)
			}
		})
	}
}

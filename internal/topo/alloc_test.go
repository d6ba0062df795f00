package topo

import (
	"runtime"
	"testing"

	"repro/internal/session"
	"repro/internal/sim"
)

// TestSteadyStateAllocsPerForwardedFrame pins the zero-alloc bridge path
// with a deterministic count: a 3-ring line carrying one routed stream,
// so every frame crosses two bridges. The same spec is built and run for
// two durations; the difference in allocations over the difference in
// forwarded frames is the steady-state cost of one more second, with
// Build and pool warm-up cancelling out. The budget is the source
// packet's header tag and capture bytes plus one of slack.
func TestSteadyStateAllocsPerForwardedFrame(t *testing.T) {
	spec := Spec{
		Name:  "alloc-line-3",
		Seed:  5,
		Rings: 3,
		Links: []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}},
		Streams: []StreamSpec{
			{StreamSpec: session.StreamSpec{Name: "routed", PacketBytes: 2000,
				Interval: 12 * sim.Millisecond, Class: session.ClassStandard},
				SrcRing: 0, DstRing: 2},
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(d sim.Time) (allocs, forwarded uint64) {
		spec.Duration = d
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := n.Run(1)
		runtime.ReadMemStats(&m1)
		if !res.Streams[0].Decision.Admitted {
			t.Fatalf("stream rejected: %s", res.Streams[0].Decision.Reason)
		}
		for _, l := range res.Links {
			forwarded += l.A.Forwarded + l.B.Forwarded
		}
		return m1.Mallocs - m0.Mallocs, forwarded
	}
	a2, f2 := run(2 * sim.Second)
	a3, f3 := run(3 * sim.Second)
	frames := f3 - f2
	if frames < 160 {
		t.Fatalf("one more second forwarded %d frames over two bridges; want ≥160", frames)
	}
	extra := int64(a3) - int64(a2)
	per := float64(extra) / float64(frames)
	t.Logf("%d allocations over %d forwarded frames = %.2f per frame", extra, frames, per)
	if per > 3 {
		t.Fatalf("steady state: %.2f allocations per forwarded frame; want ≤ 3", per)
	}
}

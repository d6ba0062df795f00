package session

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// maxAllocsPerFrame bounds the steady-state cost of one CTMSP frame from
// VCA interrupt to playout: the packet's header tag and its capture bytes
// (both immutable once sent, so every packet owns one), plus one of slack.
const maxAllocsPerFrame = 3

// TestSteadyStateAllocsPerDeliveredFrame pins the zero-alloc frame path
// with a deterministic count instead of a host timing: one 2000-byte
// stream on an otherwise idle ring, warmed up for 2 s of simulated time so
// every pool has reached its high-water mark, then measured over the next
// second.
func TestSteadyStateAllocsPerDeliveredFrame(t *testing.T) {
	seg := NewSegment(1, 4_000_000, DefaultUtilizationCap, 0)
	spec := StreamSpec{Name: "gate", PacketBytes: 2000, Interval: 12 * sim.Millisecond, Class: ClassStandard}
	tx, rx := spec.Hosts(seg.Ring, seg.Ring, 11, 12)
	s, err := NewStream(0, spec, tx, rx, rx.Driver.Station().Addr(), DefaultPrebuffer, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Dev.Start()
	seg.Sched.RunUntil(2 * sim.Second)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	delivered := func() uint64 { st := s.recv.Stats(); return st.InOrder + st.Gaps }
	d0 := delivered()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	seg.Sched.RunUntil(3 * sim.Second)
	runtime.ReadMemStats(&m1)
	frames := delivered() - d0

	if frames < 80 {
		t.Fatalf("delivered %d frames in 1 s at 12 ms; want ≥80", frames)
	}
	allocs := m1.Mallocs - m0.Mallocs
	per := float64(allocs) / float64(frames)
	t.Logf("%d allocations over %d delivered frames = %.2f per frame", allocs, frames, per)
	if per > maxAllocsPerFrame {
		t.Fatalf("steady state: %d allocations over %d delivered frames = %.2f per frame; want ≤ %d",
			allocs, frames, per, maxAllocsPerFrame)
	}
}

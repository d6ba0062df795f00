package ring

import (
	"testing"

	"repro/internal/sim"
)

// TestPurgedRequestFrameEndDoesNotCompleteNext pins the recycling rule for
// pooled transmit requests: a request purged mid-flight still has its
// frame-end event scheduled, so it may return to the pool only when that
// event fires. Recycled at purge time, the very next Transmit would reuse
// it, and the stale frame-end would find it holding the ring and complete
// the new frame early (ABA).
func TestPurgedRequestFrameEndDoesNotCompleteNext(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.PurgeDuration = sim.Microsecond // the next frame starts long before the stale frame-end
	r := New(sched, cfg)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	received := 0
	rx.OnReceive(func(*Frame, sim.Time) { received++ })

	var first, second []DeliveryStatus
	var staleEnd sim.Time
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 2000, nil, 1), func(s DeliveryStatus) {
		first = append(first, s)
	})
	sched.At(sim.Millisecond, "purge", func() {
		if r.Current() == nil {
			t.Fatal("first frame should be on the wire at 1 ms")
		}
		staleEnd = r.currentEnd
		r.Purge()
		// The next frame goes out at once: had the purged request been
		// recycled, this Transmit would take it from the pool.
		tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 2000, nil, 2), func(s DeliveryStatus) {
			second = append(second, s)
		})
	})
	sched.Run()

	if len(first) != 1 || !first[0].PurgeLost {
		t.Fatalf("first frame: %+v; want one purge-lost completion", first)
	}
	if len(second) != 1 {
		t.Fatalf("second frame completed %d times; want once", len(second))
	}
	if !second[0].Delivered || second[0].CompletedAt <= staleEnd {
		t.Fatalf("second frame completed at %v (delivered=%t); the purged frame's stale frame-end was at %v",
			second[0].CompletedAt, second[0].Delivered, staleEnd)
	}
	if received != 1 {
		t.Fatalf("receiver saw %d frames; want only the second", received)
	}
}

// Steady-state transmission draws its requests from the ring's pool.
func TestTransmitAllocatesNoRequest(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	f := NewDataFrame(tx.Addr(), rx.Addr(), 0, 200, nil, nil)
	done := func(DeliveryStatus) {}
	if n := testing.AllocsPerRun(100, func() {
		tx.Transmit(f, done)
		sched.Run()
	}); n != 0 {
		t.Fatalf("a pooled transmission allocates %.1f; want 0", n)
	}
}

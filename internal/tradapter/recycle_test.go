package tradapter

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// A pooled envelope whose frame is purged mid-flight on a purge-interrupt
// adapter is retransmitted from the same envelope and embedded frame. Its
// two-phase recycle must still fire exactly once: after the final
// transmit-complete and the receiver's handler, not at the purge.
func TestPurgeRetransmitRecyclesEnvelopeOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PurgeInterrupt = true
	sched, r, tx, rx := pair(t, cfg)
	delivered := 0
	rx.drv.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		delivered++
		return []rtpc.Seg{rcv.ReleaseSeg("release")}
	})
	p := mkPacket(tx.k, 2000, ClassCTMSP, rx.drv.Station().Addr())
	dones, recycles := 0, 0
	var recycledAt sim.Time
	p.Done = func(s ring.DeliveryStatus) {
		dones++
		if recycles != 0 {
			t.Error("envelope recycled before its transmit-complete")
		}
	}
	p.SetRecycle(func(out *Outgoing) {
		if out != p {
			t.Errorf("recycled %p; want the pooled envelope %p", out, p)
		}
		recycles++
		recycledAt = sched.Now()
	})
	tx.drv.Output(p)
	sched.After(8*sim.Millisecond, "purge", r.Purge)
	sched.Run()

	if tx.drv.Stats().Retransmits != 1 || delivered != 1 {
		t.Fatalf("retransmits=%d delivered=%d; want one purge retransmit delivered once",
			tx.drv.Stats().Retransmits, delivered)
	}
	if dones != 1 || recycles != 1 {
		t.Fatalf("Done ran %d times and recycle %d times; want once each", dones, recycles)
	}
	if recycledAt <= 8*sim.Millisecond {
		t.Fatalf("envelope recycled at %v, before the retransmit", recycledAt)
	}
}

// The receive side holds the envelope until the class handler returns:
// a frame that never reaches a handler (no rx buffer) leaves its envelope
// unrecycled rather than recycling it early.
func TestDroppedFrameNeverRecyclesEnvelope(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxBuffers = 1
	sched, _, tx, rx := pair(t, cfg)
	rx.drv.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		return nil // leak the only buffer: later frames find none
	})
	recycles := 0
	dst := rx.drv.Station().Addr()
	for i := 0; i < 3; i++ {
		p := mkPacket(tx.k, 1000, ClassCTMSP, dst)
		p.SetRecycle(func(*Outgoing) { recycles++ })
		tx.drv.Output(p)
	}
	sched.Run()
	if rx.drv.Stats().RxNoBuffer == 0 {
		t.Fatal("receiver should have run out of rx DMA buffers")
	}
	if recycles != 1 {
		t.Fatalf("%d envelopes recycled; want only the one that reached the handler", recycles)
	}
}

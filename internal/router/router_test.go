package router

import (
	"testing"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// twoRingRig: a source on ring 0, a sink on ring 1, and between them a
// router built the way E14 builds it — two halves on one RT/PC kernel,
// each forwarding straight into the other's Inject.
type twoRingRig struct {
	sched  *sim.Scheduler
	k      *kernel.Kernel // the router's one machine
	ha, hb *Half          // ha on ring 0, hb on ring 1
	srcK   *kernel.Kernel
	srcDrv *tradapter.Driver
	dstK   *kernel.Kernel
	dstDrv *tradapter.Driver
}

func newTwoRings(t *testing.T) *twoRingRig {
	t.Helper()
	sched := sim.NewScheduler()
	cfg := ring.DefaultConfig()
	r0 := ring.New(sched, cfg)
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	r1 := ring.New(sched, cfg2)
	k := kernel.New(rtpc.NewMachine(sched, "router", rtpc.DefaultCostModel(), 9))
	ha := NewHalf(k, "router-p0", r0, 0, 2)
	hb := NewHalf(k, "router-p1", r1, 1, 2)
	ha.Forward, hb.Forward = hb.Inject, ha.Inject

	mk := func(name string, rg *ring.Ring) (*kernel.Kernel, *tradapter.Driver) {
		m := rtpc.NewMachine(sched, name, rtpc.DefaultCostModel(), 9)
		k := kernel.New(m)
		st := rg.Attach(name)
		c := tradapter.DefaultConfig()
		if name != "src" {
			c.DMABufferKind = rtpc.SystemMemory
		}
		drv := tradapter.New(k, st, c, tradapter.DefaultTiming())
		k.Register(drv)
		return k, drv
	}
	srcK, srcDrv := mk("src", r0)
	dstK, dstDrv := mk("dst", r1)
	return &twoRingRig{sched: sched, k: k, ha: ha, hb: hb, srcK: srcK, srcDrv: srcDrv, dstK: dstK, dstDrv: dstDrv}
}

// output queues one CTMSP packet on drv (whose kernel is k), MAC-addressed
// to the bridge half via and carrying routedRing/routedDst.
func output(k *kernel.Kernel, drv *tradapter.Driver, via *Half, routedRing int, routedDst ring.Addr, num uint32, size int) {
	ch := k.Pool.AllocNoWait(size)
	ch.Tag = ctmsp.Header{PacketNum: num, Length: uint32(size)}
	pool := k.Pool
	drv.Output(&tradapter.Outgoing{
		Chain:      ch,
		Size:       size,
		Class:      tradapter.ClassCTMSP,
		Dst:        via.Station().Addr(),
		RoutedDst:  routedDst,
		RoutedRing: routedRing,
		Done:       func(ring.DeliveryStatus) { pool.Free(ch) },
	})
}

// send pushes one CTMSP packet from src toward dst via the router.
func (rig *twoRingRig) send(num uint32, size int) {
	output(rig.srcK, rig.srcDrv, rig.ha, 2, rig.dstDrv.Station().Addr(), num, size)
}

// reply pushes one CTMSP packet from dst back toward src via the router.
func (rig *twoRingRig) reply(num uint32, size int) {
	output(rig.dstK, rig.dstDrv, rig.hb, 1, rig.srcDrv.Station().Addr(), num, size)
}

// count installs a CTMSP handler on drv that counts and releases frames.
func count(drv *tradapter.Driver, n *int) {
	drv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		*n++
		rcv.Release()
		return nil
	})
}

func TestRouterForwardsAcrossRings(t *testing.T) {
	rig := newTwoRings(t)
	var got []uint32
	rig.dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		out := rcv.Frame.Payload.(*tradapter.Outgoing)
		got = append(got, out.Chain.Tag.(ctmsp.Header).PacketNum)
		rcv.Release()
		return nil
	})
	for i := 0; i < 10; i++ {
		rig.send(uint32(i), 2000)
	}
	rig.sched.RunUntil(2 * sim.Second)
	if len(got) != 10 {
		t.Fatalf("forwarded %d/10", len(got))
	}
	for i, n := range got {
		if n != uint32(i) {
			t.Fatalf("order broken across the router: %v", got)
		}
	}
	a, b := rig.ha.Stats(), rig.hb.Stats()
	if a.Forwarded != 10 || b.Injected != 10 || a.Dropped+b.Dropped != 0 {
		t.Fatalf("router stats: ingress %+v, egress %+v", a, b)
	}
}

// TestRouterDropsUnroutable: a frame MAC-addressed to the bridge must
// name a final ring other than the one it arrived on. Both kinds of
// misaddressed frame are dropped at ingress and never reach ring 1.
func TestRouterDropsUnroutable(t *testing.T) {
	cases := []struct {
		name       string
		routedRing int
	}{
		{"no routed ring", 0},
		{"already on its final ring", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newTwoRings(t)
			var atDst int
			count(rig.dstDrv, &atDst)
			output(rig.srcK, rig.srcDrv, rig.ha, tc.routedRing, rig.dstDrv.Station().Addr(), 0, 500)
			rig.sched.RunUntil(sim.Second)
			a := rig.ha.Stats()
			if a.Dropped != 1 || a.Forwarded != 0 || rig.hb.Stats().Injected != 0 || atDst != 0 {
				t.Fatalf("unroutable frame should drop at ingress: %+v, delivered %d", a, atDst)
			}
		})
	}
}

// TestRouterKeepsUpWithCTMSRate answers footnote 5's question: a
// 166 KB/s stream of 2000-byte packets every 12 ms across the router.
func TestRouterKeepsUpWithCTMSRate(t *testing.T) {
	rig := newTwoRings(t)
	var delivered int
	var lastAt sim.Time
	rig.dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		delivered++
		lastAt = rcv.At
		rcv.Release()
		return nil
	})
	n := 0
	rep := rig.sched.Every(12*sim.Millisecond, "stream", func() {
		rig.send(uint32(n), 2000)
		n++
	})
	rig.sched.RunUntil(10 * sim.Second)
	rep.Stop()
	rig.sched.RunUntil(11 * sim.Second)

	if delivered < n-2 {
		t.Fatalf("router fell behind: %d/%d delivered", delivered, n)
	}
	// Steady state: the last packet arrives within a bounded pipeline
	// delay of its send (2 ring hops ≈ 22 ms + forwarding).
	sentAt := sim.Time(n) * 12 * sim.Millisecond
	if lag := lastAt - sentAt; lag > 40*sim.Millisecond {
		t.Fatalf("queueing delay grew: last packet lagged %v", lag)
	}
	// Router CPU must be sustainable.
	util := float64(rig.k.CPU().Stats().BusyTime) / float64(rig.sched.Now())
	if util > 0.5 {
		t.Fatalf("router CPU unsustainable: %.2f", util)
	}
	t.Logf("router: delivered %d/%d, cpu %.1f%%", delivered, n, 100*util)
}

// TestRouterBidirectional forwards traffic both ways through the one
// machine, then checks that the two directions really share its CPU: a
// single direction's ingress AND egress run on it, and its busy time with
// both directions running exceeds what either costs alone.
func TestRouterBidirectional(t *testing.T) {
	const frames = 20
	run := func(fwd, rev bool) (*twoRingRig, int, int) {
		rig := newTwoRings(t)
		var atSrc, atDst int
		count(rig.dstDrv, &atDst)
		count(rig.srcDrv, &atSrc)
		for i := 0; i < frames; i++ {
			if fwd {
				rig.send(uint32(i), 1000)
			}
			if rev {
				rig.reply(uint32(i), 1000)
			}
		}
		rig.sched.RunUntil(2 * sim.Second)
		return rig, atSrc, atDst
	}

	rig, atSrc, atDst := run(true, true)
	if atDst != frames || atSrc != frames {
		t.Fatalf("bidirectional forwarding: src=%d dst=%d, want %d each", atSrc, atDst, frames)
	}
	if a, b := rig.ha.Stats(), rig.hb.Stats(); a.Forwarded != frames || b.Forwarded != frames ||
		a.Injected != frames || b.Injected != frames {
		t.Fatalf("per-half accounting: p0 %+v, p1 %+v", a, b)
	}

	busy := func(r *twoRingRig) sim.Time { return r.k.CPU().Stats().BusyTime }
	// The forward direction's ingress alone: p0 switches and copies, and
	// the hand-off goes nowhere.
	ingress := newTwoRings(t)
	ingress.ha.Forward = func(Forwarded) {}
	for i := 0; i < frames; i++ {
		ingress.send(uint32(i), 1000)
	}
	ingress.sched.RunUntil(2 * sim.Second)
	fwdOnly, _, _ := run(true, false)
	revOnly, _, _ := run(false, true)
	both, one, other, in := busy(rig), busy(fwdOnly), busy(revOnly), busy(ingress)
	if one <= in {
		t.Fatalf("egress is not on the router CPU: busy forward only=%v, its ingress alone=%v", one, in)
	}
	if both <= one || both <= other {
		t.Fatalf("directions do not share the router CPU: busy both=%v, forward only=%v, reverse only=%v",
			both, one, other)
	}
	t.Logf("router busy: both %v, forward only %v (ingress %v), reverse only %v", both, one, in, other)
}

// TestHalfEnvelopePoolReuses pins the split bridge's pooled egress: the
// envelope a recycle returns is the envelope the next Inject reuses, its
// permanent chain shell rides along, and the steady-state get/put cycle
// allocates nothing. (The two-phase recycle that decides WHEN putEnv
// runs is tradapter's; here we pin the pool itself.)
func TestHalfEnvelopePoolReuses(t *testing.T) {
	sched := sim.NewScheduler()
	rg := ring.New(sched, ring.DefaultConfig())
	k := kernel.New(rtpc.NewMachine(sched, "half", rtpc.DefaultCostModel(), 9))
	h := NewHalf(k, "half", rg, 0, 2)

	e1 := h.getEnv()
	if e1.Chain == nil || e1.Done == nil {
		t.Fatal("cold-path envelope missing its permanent chain shell or Done")
	}
	ch1 := e1.Chain
	e1.Chain.Tag = "stale"
	e1.RoutedRing = 2
	h.putEnv(e1)
	e2 := h.getEnv()
	if e2 != e1 || e2.Chain != ch1 {
		t.Fatalf("pool built a fresh envelope instead of reusing: %p vs %p", e2, e1)
	}
	if e2.Chain.Tag != nil || e2.RoutedRing != 0 || e2.Dst != 0 {
		t.Fatalf("recycled envelope not cleared: %+v", e2)
	}
	h.putEnv(e2)

	if n := testing.AllocsPerRun(200, func() {
		h.putEnv(h.getEnv())
	}); n != 0 {
		t.Fatalf("envelope get/put cycle allocates %.1f per op; want 0", n)
	}
}

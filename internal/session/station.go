package session

import (
	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/playout"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
	"repro/internal/vca"
	"repro/internal/workload"
)

// Station assembly. Every runner that puts RT/PC hosts and CTMSP streams
// on a Token Ring builds them here: core's single-stream scenarios take
// their hosts from NewHost, and the session layer's shared ring and each
// of topo's shard rings are assembled — ring, population, background
// load, host pairs, streams — by the same three builders.

const (
	// PopulationStations is how many other machines sit on a campus ring
	// (the paper's ring had ~70); they contribute repeat latency even when
	// silent.
	PopulationStations = 64
	// DefaultInsertionPurges is the paper's "on the order of 10"
	// back-to-back purges per station insertion.
	DefaultInsertionPurges = 10
	// maxOutstanding bounds packets a stream may queue in its Token Ring
	// driver: past it the VCA handler drops at the device, which is how a
	// starved stream degrades instead of buffering unboundedly.
	maxOutstanding = 8
)

// Segment is one Token Ring as the session layer runs it: a private
// scheduler, the ring padded with the campus population, the declared
// background load, and the admission controller budgeted against it.
type Segment struct {
	Sched *sim.Scheduler
	Ring  *ring.Ring
	Ctrl  *Controller
	// backgroundBits is the declared background load the admission
	// budget subtracts.
	//
	//ctmsvet:unit bit/s
	backgroundBits int64
	gens           []interface{ Stop() }
}

// NewSegment builds a segment whose ring and background generators draw
// from seed. The background is a sliver of MAC chatter plus 1522-byte
// transfer frames making up the rest of backgroundUtil.
//
//ctmsvet:unit bit/s bitRate
func NewSegment(seed, bitRate int64, utilizationCap, backgroundUtil float64) *Segment {
	sched := sim.NewScheduler()
	ringCfg := ring.DefaultConfig()
	ringCfg.Seed = seed
	ringCfg.BitRate = bitRate
	r := ring.New(sched, ringCfg)
	for i := 0; i < PopulationStations; i++ {
		r.Attach("pop")
	}
	s := &Segment{Sched: sched, Ring: r, backgroundBits: int64(backgroundUtil * float64(bitRate))}
	if backgroundUtil > 0 {
		rng := sim.NewRNG(seed)
		macUtil := min(backgroundUtil*0.1, 0.01)
		mon := r.Attach("monitor")
		s.gens = append(s.gens, workload.NewMACGen(r, mon, macUtil, rng.Fork("bg-mac")))
		if restUtil := backgroundUtil - macUtil; restUtil > 0 {
			src, dst := r.Attach("bg-src"), r.Attach("bg-dst")
			mean := sim.Scale(sim.WireTime(1522, bitRate), 1/restUtil)
			s.gens = append(s.gens, workload.NewChatterGen(r, src, dst, 1522, 1522, mean, rng.Fork("bg-data")))
		}
	}
	s.Ctrl = NewController(bitRate, utilizationCap, s.backgroundBits)
	return s
}

// StopBackground stops the background generators at the end of a run.
func (s *Segment) StopBackground() {
	for _, g := range s.gens {
		g.Stop()
	}
}

// Host is one RT/PC machine on a ring: its kernel and the Token Ring
// adapter driver registered with it.
type Host struct {
	Kernel *kernel.Kernel
	Driver *tradapter.Driver
}

// NewHost builds the machine name, seeded with seed, on r's scheduler and
// attaches it to r as a new station through an adapter configured by
// trCfg.
func NewHost(r *ring.Ring, name string, seed int64, trCfg tradapter.Config) Host {
	m := rtpc.NewMachine(r.Scheduler(), name, rtpc.DefaultCostModel(), seed)
	k := kernel.New(m)
	drv := tradapter.New(k, r.Attach(name), trCfg, tradapter.DefaultTiming())
	k.Register(drv)
	return Host{Kernel: k, Driver: drv}
}

// Hosts builds the stream's transmitter on tx and its receiver on rx —
// the paper's RT/PC pair, named after the stream and seeded by the
// caller — with adapters that send CTMSP at the class's ring priority.
func (s StreamSpec) Hosts(tx, rx *ring.Ring, txSeed, rxSeed int64) (Host, Host) {
	trCfg := tradapter.DefaultConfig()
	trCfg.CTMSPRingPriority = s.Class.RingPriority()
	return NewHost(tx, s.Name+"-tx", txSeed, trCfg), NewHost(rx, s.Name+"-rx", rxSeed, trCfg)
}

// StreamCounts is one admitted stream's transport and playout
// accounting.
type StreamCounts struct {
	Sent       uint64
	Delivered  uint64
	Lost       uint64
	Gaps       uint64
	Duplicates uint64

	Glitches       uint64
	StarvedTime    sim.Time
	MaxBufferBytes int
}

// Stream is one CTMSP stream's live machinery: the VCA source, its
// transmit driver, the receiver and the playout buffer.
type Stream struct {
	Dev   *vca.Device
	txDrv *vca.TxDriver
	recv  *ctmsp.Receiver
	play  *playout.Playout
}

// NewStream wires stream id between two hosts: a CTMSP connection with a
// precomputed ring header dialed to dialTo (the receiver's station, or a
// bridge for a routed stream, whose patch fills the routed fields), the
// VCA source interrupting every Interval, and the receive path feeding a
// playout buffer. startAt is when the caller will start the device;
// onDelay, when non-nil, receives each delivered packet's delay past its
// nominal capture schedule.
func NewStream(id int, spec StreamSpec, tx, rx Host, dialTo ring.Addr, prebuffer, startAt sim.Time,
	patch func(*tradapter.Outgoing), onDelay func(sim.Time)) (*Stream, error) {
	// Connection ids are a uint8 namespace; population runs can exceed it,
	// and the id only disambiguates packets on the shared ring trace, so
	// wrapping is safe (identical to id+1 for the first 250 streams).
	conn, err := ctmsp.Dial(tx.Kernel, tx.Driver, dialTo, uint8(id%250+1))
	if err != nil {
		return nil, err
	}

	dev := vca.NewDevice(tx.Kernel)
	dev.SetPeriod(spec.Interval)
	txCfg := vca.DefaultTxConfig()
	txCfg.DataBytes = spec.PacketBytes - ctmsp.HeaderSize
	txDrv, err := vca.NewTxDriver(tx.Kernel, dev, conn, txCfg)
	if err != nil {
		return nil, err
	}
	txDrv.MaxOutstanding = maxOutstanding
	txDrv.PatchOutgoing = patch

	recv := &ctmsp.Receiver{}
	rxDrv := vca.NewRxDriver(rx.Kernel, rx.Driver, recv, vca.DefaultRxConfigB())
	streamBytesPerSec := float64(spec.PacketBytes-ctmsp.HeaderSize) / spec.Interval.Seconds()
	play := playout.New(streamBytesPerSec, prebuffer)
	play.SetTrace(rx.Kernel.Sched().Trace())
	rxDrv.OnDelivered = func(h ctmsp.Header, at sim.Time, ev ctmsp.Event) {
		if ev != ctmsp.InOrder && ev != ctmsp.Gap {
			return
		}
		play.Deliver(int(h.Length)-ctmsp.HeaderSize, at)
		if onDelay != nil {
			// Packet n was captured at startAt + (n+1)·Interval (the
			// device's first interrupt fires one period after Start);
			// anything past that is transport plus queueing delay.
			onDelay(at - (startAt + sim.Time(h.PacketNum+1)*spec.Interval))
		}
	}
	return &Stream{Dev: dev, txDrv: txDrv, recv: recv, play: play}, nil
}

// Counts reads the stream's accounting, closing its playout buffer at
// end.
func (s *Stream) Counts(end sim.Time) StreamCounts {
	tx := s.txDrv.Stats()
	rx := s.recv.Stats()
	p := s.play.Finish(end)
	return StreamCounts{
		Sent:           tx.PacketsSent,
		Delivered:      rx.InOrder + rx.Gaps,
		Lost:           rx.Lost,
		Gaps:           rx.Gaps,
		Duplicates:     rx.Duplicates,
		Glitches:       p.Glitches,
		StarvedTime:    p.StarvedTime,
		MaxBufferBytes: p.MaxBufferBytes,
	}
}

// Package vca models IBM's Voice Communications Adapter as the paper
// uses it: a TI32010 DSP programmed to interrupt the host every 12 ms
// with no detectable variation (§5.2.2 verified ±500 ns with a logic
// analyzer; we model it as exact and attribute all observed spread to the
// host side, as the paper does), a 2K×16 on-card buffer reachable through
// a byte-wide interface, and the device driver modifications of §5.1:
// ioctls that set up the special mode, fetch and keep the precomputed
// Token Ring header, and obtain the direct driver-to-driver handles.
package vca

import (
	"fmt"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Interval is the DSP's programmed interrupt period.
const Interval = 12 * sim.Millisecond

// DeviceBufferBytes is the on-card memory (2K × 16 bits).
const DeviceBufferBytes = 4096

// Device is the adapter hardware: a perfectly regular interrupt source.
type Device struct {
	k      *kernel.Kernel
	rep    *sim.Repeater
	period sim.Time
	ticks  uint64
	// OnIRQ observes the exact hardware interrupt edge — measurement
	// point 1, which only the logic analyzer can see directly.
	OnIRQ func(tick uint64, at sim.Time)
	// irq is the host-side interrupt action installed by the driver.
	irq func(tick uint64)
}

// NewDevice creates the adapter on machine k with the paper's 12 ms
// interrupt period.
func NewDevice(k *kernel.Kernel) *Device {
	return &Device{k: k, period: Interval}
}

// SetPeriod reprograms the DSP's interrupt period (the session layer runs
// streams of different rates). Must be called before Start.
func (d *Device) SetPeriod(t sim.Time) {
	sim.Checkf(d.rep == nil, "cannot reprogram a running VCA")
	sim.Checkf(t > 0, "VCA period must be positive")
	d.period = t
}

// Start programs the DSP to begin interrupting every period.
func (d *Device) Start() {
	sim.Checkf(d.rep == nil, "VCA already started")
	d.rep = d.k.Sched().Every(d.period, "vca.irq", func() {
		tick := d.ticks
		d.ticks++
		if d.OnIRQ != nil {
			d.OnIRQ(tick, d.k.Sched().Now())
		}
		if d.irq != nil {
			d.irq(tick)
		}
	})
}

// Stop halts the DSP timer.
func (d *Device) Stop() {
	if d.rep != nil {
		d.rep.Stop()
		d.rep = nil
	}
}

// Ticks reports how many interrupts have fired.
func (d *Device) Ticks() uint64 { return d.ticks }

// SetIRQ installs the host-side interrupt action. NewTxDriver does this
// for the CTMS path; alternative drivers (the stock relay) install their
// own handler here.
func (d *Device) SetIRQ(fn func(tick uint64)) { d.irq = fn }

// TxConfig selects the transmit-side driver variants of §5.3.
type TxConfig struct {
	// DataBytes is the payload appended after the CTMSP header; the
	// paper uses packets of 2000 bytes total.
	DataBytes int
	// CopyHeaderOnly copies only the header into the fixed DMA buffer.
	CopyHeaderOnly bool
	// CopyVCAToMbufs copies the data out of the VCA device buffer into
	// mbufs over the byte-wide interface (the paper's tests append
	// synthetic data instead, leaving this off).
	CopyVCAToMbufs bool
	// DispatchCost is the hardware vectoring and register-save time
	// between the IRQ edge and the first handler instruction; the
	// measured minimum of the points 1→2 delta.
	DispatchCost sim.Time
	// EntryCost, AllocCost, StampCost are the handler code segments;
	// their sum plus the driver entry is the ~600 µs of non-copy latency
	// §5.3 attributes to "execution of the code between the two points".
	EntryCost, AllocCost, StampCost sim.Time
	// EntryJitterMax adds per-interrupt code-path variation.
	EntryJitterMax sim.Time
}

// DefaultTxConfig returns the calibrated transmit driver configuration.
func DefaultTxConfig() TxConfig {
	return TxConfig{
		DataBytes:      2000 - ctmsp.HeaderSize,
		DispatchCost:   28 * sim.Microsecond,
		EntryCost:      180 * sim.Microsecond,
		AllocCost:      150 * sim.Microsecond,
		StampCost:      80 * sim.Microsecond,
		EntryJitterMax: 30 * sim.Microsecond,
	}
}

// TxStats aggregates transmit-driver accounting.
type TxStats struct {
	Interrupts  uint64
	PacketsSent uint64
	MbufDrops   uint64
	QueueDrops  uint64
}

// TxDriver is the VCA driver configured as the CTMS data source: its
// interrupt handler builds a CTMSP packet and hands it directly to the
// Token Ring driver — the §2 driver-to-driver path, no user process.
type TxDriver struct {
	k    *kernel.Kernel
	dev  *Device
	conn *ctmsp.Conn
	out  func(*tradapter.Outgoing) // handle obtained by ioctl
	cfg  TxConfig

	// Probes for the measurement tools.
	OnHandlerEntry func(tick uint64, at sim.Time)      // point 2
	OnPreTransmit  func(packetNum uint32, at sim.Time) // point 3
	OnTxDone       func(packetNum uint32, s ring.DeliveryStatus)
	// PatchOutgoing, if set, may modify each packet before it is handed
	// to the Token Ring driver (used for the pointer-transfer ablation).
	PatchOutgoing func(*tradapter.Outgoing)

	// MaxOutstanding bounds packets queued in the TR driver before the
	// handler starts dropping (device-level flow control). Zero means
	// unlimited.
	MaxOutstanding int
	outstanding    int

	// Interrupt jobs and packet envelopes come from free lists that grow
	// on first use, so the steady-state interrupt allocates only the
	// packet's header tag and capture bytes (see ctmsp.Conn.BuildPacket).
	intrFree *intrJob
	pktFree  *txPacket
	stampFn  func() []rtpc.Seg

	stats TxStats
}

// intrJob is one VCA interrupt in flight: the handler's program, built
// once per job (its shape is fixed by the driver's configuration), with
// the tick and the drawn entry jitter as the per-interrupt cursor.
// Interrupts can queue behind higher-level work, so several may be in
// flight; a job returns to the free list when its task completes.
type intrJob struct {
	t        *TxDriver
	tick     uint64
	segs     []rtpc.Seg
	doneFn   func()
	nextFree *intrJob
}

// entryIdx is the position of the jittered "entry" segment in an
// interrupt program.
const entryIdx = 2

// txPacket is one pooled packet envelope: the Outgoing with its permanent
// chain shell, its Done and PreTransmit hooks and its recycle hook, all
// bound once when the envelope is first built. num is the cursor: the
// packet number the hooks report.
type txPacket struct {
	t         *TxDriver
	out       tradapter.Outgoing
	num       uint32
	recycleFn func(*tradapter.Outgoing)
	nextFree  *txPacket
}

// DriverName implements kernel.Driver.
func (t *TxDriver) DriverName() string { return "vca0" }

// Ioctl implements the special-mode setup commands of §5.1.
func (t *TxDriver) Ioctl(cmd string, arg any) (any, error) {
	switch cmd {
	case "get-stats":
		return t.stats, nil
	case "set-max-outstanding":
		n, ok := arg.(int)
		if !ok {
			return nil, fmt.Errorf("vca0: set-max-outstanding wants an int")
		}
		t.MaxOutstanding = n
		return nil, nil
	default:
		return nil, fmt.Errorf("vca0: unknown ioctl %q", cmd)
	}
}

// NewTxDriver wires the VCA device to a CTMSP connection. It performs the
// paper's setup: the CTMSP connection already holds the precomputed ring
// header; the driver fetches the TR driver's output handle by ioctl and
// hard-codes the call into its interrupt handler.
func NewTxDriver(k *kernel.Kernel, dev *Device, conn *ctmsp.Conn, cfg TxConfig) (*TxDriver, error) {
	h, err := k.Ioctl("tr0", "get-output-handle", nil)
	if err != nil {
		return nil, fmt.Errorf("vca: %w", err)
	}
	t := &TxDriver{k: k, dev: dev, conn: conn, out: h.(func(*tradapter.Outgoing)), cfg: cfg}
	t.stampFn = t.stampHeaders
	dev.irq = t.interrupt
	k.Register(t)
	return t, nil
}

// Stats returns a snapshot of transmit accounting.
func (t *TxDriver) Stats() TxStats { return t.stats }

// interrupt is the VCA interrupt: it runs the handler at the VCA's
// interrupt level. The delay from here to the handler's first segment is
// measurement points 1→2 (histogram 5).
//
//ctmsvet:hotpath
func (t *TxDriver) interrupt(tick uint64) {
	t.stats.Interrupts++
	j := t.allocIntr()
	j.tick = tick
	j.segs[entryIdx].Cost = t.cfg.EntryCost + t.k.Machine.Jitter(t.cfg.EntryJitterMax)
	t.k.CPU().Submit(kernel.LevelVCA, "vca.intr", j.segs, j.doneFn)
}

//ctmsvet:hotpath
func (t *TxDriver) allocIntr() *intrJob {
	if j := t.intrFree; j != nil {
		t.intrFree, j.nextFree = j.nextFree, nil
		return j
	}
	return t.newIntr()
}

// newIntr builds an interrupt job and its program: the cold refill path.
func (t *TxDriver) newIntr() *intrJob {
	j := &intrJob{t: t}
	j.doneFn = j.done
	j.segs = []rtpc.Seg{
		rtpc.Do("irq-dispatch", t.cfg.DispatchCost),
		{Name: "handler-entry", Fn: j.handlerEntry},
		rtpc.Do("entry", 0), // entryIdx: cost drawn per interrupt
	}
	if t.cfg.CopyVCAToMbufs {
		j.segs = append(j.segs, t.k.Machine.CopySeg("vca-to-mbuf", t.cfg.DataBytes, rtpc.DeviceMemory, rtpc.SystemMemory))
	}
	j.segs = append(j.segs,
		rtpc.Do("mbuf-alloc", t.cfg.AllocCost),
		rtpc.Seg{Name: "stamp-headers", Cost: t.cfg.StampCost, Fn: t.stampFn},
	)
	return j
}

//ctmsvet:hotpath
func (j *intrJob) handlerEntry() []rtpc.Seg {
	if t := j.t; t.OnHandlerEntry != nil {
		t.OnHandlerEntry(j.tick, t.k.Sched().Now())
	}
	return nil
}

//ctmsvet:hotpath
func (j *intrJob) done() {
	t := j.t
	j.nextFree, t.intrFree = t.intrFree, j
}

//ctmsvet:hotpath
func (t *TxDriver) stampHeaders() []rtpc.Seg {
	t.buildAndSend()
	return nil
}

//ctmsvet:hotpath
func (t *TxDriver) buildAndSend() {
	if t.MaxOutstanding > 0 && t.outstanding >= t.MaxOutstanding {
		t.stats.QueueDrops++
		return
	}
	p := t.allocPacket()
	if !t.conn.BuildPacket(&p.out, t.cfg.DataBytes, t.cfg.CopyHeaderOnly) {
		t.stats.MbufDrops++
		t.putPacket(p)
		return
	}
	p.num = p.out.Chain.Tag.(ctmsp.Header).PacketNum
	t.outstanding++
	p.out.SetRecycle(p.recycleFn)
	if t.PatchOutgoing != nil {
		t.PatchOutgoing(&p.out)
	}
	t.out(&p.out)
}

//ctmsvet:hotpath
func (t *TxDriver) allocPacket() *txPacket {
	if p := t.pktFree; p != nil {
		t.pktFree, p.nextFree = p.nextFree, nil
		return p
	}
	return t.newPacket()
}

// newPacket builds an envelope and binds its hooks: the cold refill path.
func (t *TxDriver) newPacket() *txPacket {
	p := &txPacket{t: t}
	p.out.Chain = &kernel.Chain{}
	p.out.PreTransmit = p.preTransmit
	p.out.Done = p.done
	p.recycleFn = p.recycle
	return p
}

//ctmsvet:hotpath
func (p *txPacket) preTransmit() {
	if t := p.t; t.OnPreTransmit != nil {
		t.OnPreTransmit(p.num, t.k.Sched().Now())
	}
}

// done is the packet's transmit-complete hook: free the mbufs, then the
// driver's accounting and probe.
//
//ctmsvet:hotpath
func (p *txPacket) done(s ring.DeliveryStatus) {
	t := p.t
	t.k.Pool.Free(p.out.Chain)
	t.outstanding--
	t.stats.PacketsSent++
	if t.OnTxDone != nil {
		t.OnTxDone(p.num, s)
	}
}

// recycle runs once the Token Ring driver's two-phase release proves the
// envelope dead (transmit complete and the receiver's handler returned).
//
//ctmsvet:hotpath
func (p *txPacket) recycle(*tradapter.Outgoing) { p.t.putPacket(p) }

//ctmsvet:hotpath
func (t *TxDriver) putPacket(p *txPacket) {
	p.out.Chain.Tag = nil
	p.out.Capture = nil
	p.nextFree, t.pktFree = t.pktFree, p
}

// RxConfig selects the receive-side driver variants of §5.3.
type RxConfig struct {
	// CopyToMbufs copies the packet from the fixed rx DMA buffer into
	// mbufs before the VCA examines it; off means the VCA examines the
	// packet in place.
	CopyToMbufs bool
	// CopyToDevice copies the data out of mbufs into the VCA device
	// buffer; off means the data is dropped after accounting.
	CopyToDevice bool
	// ExamineCost is the in-place inspection cost when CopyToMbufs is
	// off.
	ExamineCost sim.Time
}

// DefaultRxConfigB returns Test Case B's receive path: full copying.
func DefaultRxConfigB() RxConfig {
	return RxConfig{CopyToMbufs: true, CopyToDevice: true, ExamineCost: 40 * sim.Microsecond}
}

// DefaultRxConfigA returns Test Case A's receive path: copy into mbufs
// but drop instead of feeding the device.
func DefaultRxConfigA() RxConfig {
	return RxConfig{CopyToMbufs: true, CopyToDevice: false, ExamineCost: 40 * sim.Microsecond}
}

// RxStats aggregates receive-driver accounting.
type RxStats struct {
	Classified uint64
	Delivered  uint64
	BadHeader  uint64
}

// RxDriver is the VCA driver configured as the CTMS sink on the receiving
// machine. It installs itself at the Token Ring driver's CTMSP split
// point; classification time there is measurement point 4.
type RxDriver struct {
	k    *kernel.Kernel
	cfg  RxConfig
	recv *ctmsp.Receiver

	// OnClassified observes measurement point 4.
	OnClassified func(h ctmsp.Header, at sim.Time)
	// OnDelivered fires when the configured copy path completes and the
	// packet's data has reached (or been dropped on behalf of) the
	// presentation device.
	OnDelivered func(h ctmsp.Header, at sim.Time, ev ctmsp.Event)

	free  *rxJob // recycled receive jobs
	stats RxStats
}

// rxJob carries one packet through the receive copy path. The path's
// segments run inside the Token Ring driver's receive task, so the job
// returns to the free list at its own final mark, deliver. Its program is
// rewritten in place per packet; the header is the cursor.
type rxJob struct {
	r         *RxDriver
	h         ctmsp.Header
	segs      []rtpc.Seg
	deliverFn func() []rtpc.Seg
	nextFree  *rxJob
}

// NewRxDriver installs the receive driver on the TR driver's split point.
func NewRxDriver(k *kernel.Kernel, trdrv *tradapter.Driver, recv *ctmsp.Receiver, cfg RxConfig) *RxDriver {
	r := &RxDriver{k: k, cfg: cfg, recv: recv}
	trdrv.SetHandler(tradapter.ClassCTMSP, r.handle)
	return r
}

// Stats returns a snapshot of receive accounting.
func (r *RxDriver) Stats() RxStats { return r.stats }

// handle runs at the split point, inside the receive interrupt.
//
//ctmsvet:hotpath
func (r *RxDriver) handle(rcv *tradapter.Received) []rtpc.Seg {
	out, ok := rcv.Frame.Payload.(*tradapter.Outgoing)
	if !ok {
		r.stats.BadHeader++
		rcv.Release()
		return nil
	}
	h, ok := out.Chain.Tag.(ctmsp.Header)
	if !ok {
		r.stats.BadHeader++
		rcv.Release()
		return nil
	}
	r.stats.Classified++
	if r.OnClassified != nil {
		r.OnClassified(h, rcv.At)
	}

	j := r.allocJob()
	j.h = h
	m := r.k.Machine
	segs := j.segs[:0]
	if r.cfg.CopyToMbufs {
		segs = m.AppendCopySegs(segs, "dma-to-mbuf", rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory)
	} else {
		segs = append(segs, rtpc.Do("examine-in-place", r.cfg.ExamineCost)) //ctmsvet:allow hotpath cold refill path: a job's program grows only until it first reaches its longest shape, then is rewritten in place
	}
	segs = append(segs, rcv.ReleaseSeg("release")) //ctmsvet:allow hotpath cold refill path: a job's program grows only until it first reaches its longest shape, then is rewritten in place
	if r.cfg.CopyToDevice {
		segs = m.AppendCopySegs(segs, "mbuf-to-vca", rcv.Size-ctmsp.HeaderSize, rtpc.SystemMemory, rtpc.DeviceMemory)
	}
	segs = append(segs, rtpc.Seg{Name: "deliver", Fn: j.deliverFn}) //ctmsvet:allow hotpath cold refill path: a job's program grows only until it first reaches its longest shape, then is rewritten in place
	j.segs = segs
	return segs
}

//ctmsvet:hotpath
func (r *RxDriver) allocJob() *rxJob {
	if j := r.free; j != nil {
		r.free, j.nextFree = j.nextFree, nil
		return j
	}
	j := &rxJob{r: r}       //ctmsvet:allow hotpath cold refill path, runs only until the job list reaches steady state
	j.deliverFn = j.deliver //ctmsvet:allow hotpath cold refill path, bound once per pooled job
	return j
}

// deliver is the copy path's final mark: the packet has reached (or been
// dropped on behalf of) the device. It is the job's last use, so the job
// returns to the free list here.
//
//ctmsvet:hotpath
func (j *rxJob) deliver() []rtpc.Seg {
	r, h := j.r, j.h
	ev := r.recv.Accept(h, r.k.Sched().Now())
	r.stats.Delivered++
	if r.OnDelivered != nil {
		r.OnDelivered(h, r.k.Sched().Now(), ev)
	}
	j.nextFree, r.free = r.free, j
	return nil
}

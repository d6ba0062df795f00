// Package tradapter models the IBM Token Ring adapter and its UNIX device
// driver, with every §3/§4 modification as a configuration toggle:
//
//   - fixed DMA buffers in IO Channel Memory vs system memory (§4),
//   - a CTMSP packet-priority class inside the driver, above ARP and IP (§3),
//   - CTMSP frames sent at an elevated Token Ring access priority (§3),
//   - the Token Ring header precomputed once per connection vs recomputed
//     for every packet as IP requires (§3),
//   - the split point where received packets are classified so CTMSP
//     packets can be handled with "the shortest possible test" (§3, §5.2.3),
//   - the adapter's inability to interrupt on Ring Purge (§4), with the
//     hypothetical purge-interrupt mode available as an ablation,
//   - optional promiscuous MAC-frame reception, whose interrupt overhead
//     §4 quantifies and rejects.
package tradapter

import (
	"fmt"
	"strconv"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// Class is the protocol class of a packet at the driver's split point.
//
//ctmsvet:enum
type Class uint8

const (
	// ClassIP is ordinary IP traffic.
	ClassIP Class = iota
	// ClassARP is address-resolution traffic.
	ClassARP
	// ClassCTMSP is continuous-time-media traffic, which the modified
	// driver queues ahead of everything else.
	ClassCTMSP
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassIP:
		return "IP"
	case ClassARP:
		return "ARP"
	case ClassCTMSP:
		return "CTMSP"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// RingOverhead is the Token Ring framing (SD, AC, FC, addresses, RI, FCS,
// ED, FS) added to every frame on the wire.
const RingOverhead = 21

// Config selects which of the paper's modifications are active.
type Config struct {
	// DMABufferKind places the fixed DMA buffers (§4's third change).
	DMABufferKind rtpc.MemoryKind
	// DriverPriority serves ClassCTMSP before ARP/IP in the output queue.
	DriverPriority bool
	// CTMSPRingPriority is the Token Ring access priority for CTMSP
	// frames (0 = same as everything else).
	CTMSPRingPriority int
	// PrecomputeHeader caches the ring header per connection; when false
	// every packet pays HeaderComputeCost, as IP's routing model forces.
	PrecomputeHeader bool
	// HeaderComputeCost is the CPU cost to build a Token Ring header.
	HeaderComputeCost sim.Time
	// TxBuffers and RxBuffers are the number of fixed DMA buffers.
	TxBuffers, RxBuffers int
	// PurgeInterrupt enables the hypothetical adapter that interrupts on
	// Ring Purge, letting the driver retransmit the last packet (§5).
	PurgeInterrupt bool
	// UnprotectedQueueBug re-introduces the critical-section bug the
	// paper found with the TAP monitor (§5): the output queue is
	// manipulated without protection against the transmit-complete
	// interrupt, so under the right interleaving two queued packets
	// swap. "Once the critical sections of code were more carefully
	// protected, the problem of out of order packets completely
	// disappeared."
	UnprotectedQueueBug bool
	// PromiscuousMAC receives every MAC frame, costing an interrupt each.
	PromiscuousMAC bool
}

// DefaultConfig returns the fully modified driver of the prototype.
func DefaultConfig() Config {
	return Config{
		DMABufferKind:     rtpc.IOChannelMemory,
		DriverPriority:    true,
		CTMSPRingPriority: 4,
		PrecomputeHeader:  true,
		HeaderComputeCost: 120 * sim.Microsecond,
		TxBuffers:         2,
		RxBuffers:         4,
	}
}

// StockConfig returns the unmodified driver: buffers in system memory, one
// FIFO output queue, no ring priority, per-packet header computation.
func StockConfig() Config {
	c := DefaultConfig()
	c.DMABufferKind = rtpc.SystemMemory
	c.DriverPriority = false
	c.CTMSPRingPriority = 0
	c.PrecomputeHeader = false
	return c
}

// Timing holds the adapter hardware constants, calibrated in DESIGN.md §5
// so a 2000-byte frame's minimum transmitter-to-receiver latency matches
// Figure 5-3's 10 740 µs.
type Timing struct {
	// TxCardLatency is adapter firmware processing before transmission.
	TxCardLatency sim.Time
	// RxCardLatency is adapter firmware processing on reception.
	RxCardLatency sim.Time
	// CardJitterMax is the per-frame firmware-latency variation added to
	// each of the card latencies (uniform in [0, max]).
	CardJitterMax sim.Time
	// IntrDispatchCost is the fixed cost at the top of the interrupt
	// handler (register save, status read).
	IntrDispatchCost sim.Time
	// ClassifyCost is the "shortest possible test" that recognizes a
	// CTMSP packet at the split point.
	ClassifyCost sim.Time
	// CompletionCost is the transmit-complete interrupt's work.
	CompletionCost sim.Time
	// MACFrameCost is the interrupt + header parse per MAC frame in
	// promiscuous mode (§4 calls this overhead unacceptable).
	MACFrameCost sim.Time
}

// DefaultTiming returns the calibrated constants.
func DefaultTiming() Timing {
	return Timing{
		TxCardLatency:    540 * sim.Microsecond,
		RxCardLatency:    3075 * sim.Microsecond,
		CardJitterMax:    120 * sim.Microsecond,
		IntrDispatchCost: 60 * sim.Microsecond,
		ClassifyCost:     25 * sim.Microsecond,
		CompletionCost:   80 * sim.Microsecond,
		MACFrameCost:     110 * sim.Microsecond,
	}
}

// Outgoing is one packet handed to the driver for transmission.
type Outgoing struct {
	Chain *kernel.Chain
	Size  int // payload bytes (ring overhead added on the wire)
	Class Class
	Dst   ring.Addr
	// RoutedDst is the final destination when the frame crosses a
	// router: Dst addresses the router's ingress port (or the target on
	// the final ring), RoutedDst names the end station. Zero means local
	// delivery.
	RoutedDst ring.Addr
	// RoutedRing is the 1-based internetwork ring index the RoutedDst
	// address lives on, for topologies with more than two rings (each
	// ring has its own address space, so RoutedDst alone cannot name a
	// station across a multi-hop path). Zero means the two-ring legacy
	// interpretation: RoutedDst is in the egress ring's space.
	RoutedRing int
	// CopyBytes is how many bytes the CPU copies into the fixed DMA
	// buffer (§5.3's "header only" vs "header and data" toggle). Zero
	// means copy Size bytes.
	CopyBytes int
	// NoCopy is §2's pointer-transfer extension: the CPU passes the mbuf
	// chain's DMA-able pages to the adapter instead of copying. The
	// adapter then DMAs from system memory, which steals CPU cycles.
	NoCopy bool
	// Capture is what a ring monitor sees of the packet (≤96 bytes).
	Capture []byte
	// PreTransmit fires immediately after the packet is copied into the
	// fixed DMA buffer and immediately before the transmit command —
	// measurement point 3.
	PreTransmit func()
	// Done fires at the transmit-complete interrupt with the hardware
	// delivery status.
	Done func(ring.DeliveryStatus)

	queuedAt sim.Time
	// frame is the ring frame this envelope travels in, filled at the
	// transmit command; it lives and dies with the envelope.
	frame ring.Frame
	// Pooled-envelope recycling (SetRecycle): refs counts the two points
	// after which the driver guarantees no further reads of this envelope.
	recycle func(*Outgoing)
	refs    int8
}

// SetRecycle arms two-phase envelope recycling for pooled packets: fn runs
// once the envelope is provably dead — after BOTH the transmit-complete
// interrupt has run Done AND the receiving driver's class handler has
// returned. Receivers read the envelope (class, routed fields, chain tag,
// the embedded ring frame) only synchronously inside their handler, and
// transmit-complete can fire before or after that read, so neither side
// alone may reuse it. Both release points run on the same ring's
// scheduler — no cross-shard access.
// A frame dropped before classification (rx-buffer exhaustion) never
// reaches its second release; the envelope is then simply garbage
// collected and its pool refills on the cold path.
func (p *Outgoing) SetRecycle(fn func(*Outgoing)) {
	p.recycle = fn
	p.refs = 2
}

// release consumes one of the two envelope references; a no-op for
// envelopes that never armed recycling.
//
//ctmsvet:hotpath
func (p *Outgoing) release() {
	if p.recycle == nil {
		return
	}
	p.refs--
	if p.refs == 0 {
		fn := p.recycle
		p.recycle = nil
		fn(p)
	}
}

// Received is a packet arriving at the driver's split point. It lives in
// the driver's receive job and stays valid until the receive interrupt's
// task (the handler's segments included) has finished and the buffer has
// been released; handlers must not keep it beyond that.
type Received struct {
	Frame *ring.Frame
	Class Class
	Size  int
	// At is the classification instant (measurement point 4 for CTMSP).
	At sim.Time
	// Buffer is the fixed rx DMA buffer the packet sits in. The handler
	// must Release exactly once, after whatever copying its path does.
	Buffer     *rtpc.Buffer
	release    func()
	releaseSeg func() []rtpc.Seg
}

// Release frees the rx DMA buffer for the next frame.
func (r *Received) Release() {
	if r.release == nil {
		sim.Checkf(false, "rx buffer released twice")
	}
	f := r.release
	r.release = nil
	f()
}

// ReleaseSeg returns a zero-cost segment that releases the rx buffer when
// it runs — a handler's release mark, built without a closure.
//
//ctmsvet:hotpath
func (r *Received) ReleaseSeg(name string) rtpc.Seg {
	return rtpc.Seg{Name: name, Fn: r.releaseSeg}
}

// Handler consumes a classified packet. It runs inside the receive
// interrupt and returns additional CPU segments (the configured copy path)
// to execute at interrupt level.
type Handler func(*Received) []rtpc.Seg

// Stats aggregates driver accounting.
type Stats struct {
	TxQueued     [numClasses]uint64
	TxDone       [numClasses]uint64
	TxDropped    [numClasses]uint64
	RxFrames     [numClasses]uint64
	RxNoBuffer   uint64
	RxMACFrames  uint64
	Retransmits  uint64
	HeaderComps  uint64
	QueueRaces   uint64
	MaxTxQueue   int
	MaxQueueWait sim.Time
}

// Driver is the Token Ring device driver plus adapter.
type Driver struct {
	k      *kernel.Kernel
	st     *ring.Station
	cfg    Config
	timing Timing
	// The adapter has independent transmit and receive DMA channels;
	// only the host bus (and the CPU, for system-memory targets) is
	// shared between them.
	txDMA, rxDMA *rtpc.DMA

	txBufs   []*rtpc.Buffer
	txQueues [2][]*Outgoing // 1 = CTMSP class, 0 = everything else
	// The transmit path is a two-stage pipeline: the CPU copies the next
	// packet into a free fixed DMA buffer while the previous packet is
	// still being DMAd/transmitted. Copies run one at a time (they are
	// CPU work and must finish in order); the wire stage is strictly
	// serialized in copy order, which is what preserves packet sequence.
	// One frame per stage means each stage's per-frame state is a driver
	// field and its callbacks are method values bound once in New.
	copyActive bool
	copying    wireItem   // the packet in the copy stage
	copySegs   []rtpc.Seg // its program, rebuilt in place per frame
	wireQ      []wireItem // copied packets waiting for the wire
	wireBusy   bool
	wire       wireItem // the packet on the wire stage
	wireStatus ring.DeliveryStatus
	txIntr     []rtpc.Seg // the transmit-complete interrupt's program
	preTxFn    func() []rtpc.Seg
	txDMAFn    func()
	txCardFn   func()
	txStatusFn func(ring.DeliveryStatus)

	rxBufs    []*rtpc.Buffer
	rxPending int    // frames between wire arrival and rx buffer claim
	rxFree    *rxJob // recycled receive jobs
	macSegs   []rtpc.Seg

	handlers [numClasses]Handler
	stats    Stats
}

// New builds a driver for machine k attached to station st.
func New(k *kernel.Kernel, st *ring.Station, cfg Config, timing Timing) *Driver {
	if cfg.TxBuffers <= 0 {
		cfg.TxBuffers = 1
	}
	if cfg.RxBuffers <= 0 {
		cfg.RxBuffers = 2
	}
	d := &Driver{k: k, st: st, cfg: cfg, timing: timing}
	d.txDMA = k.Machine.NewDMA("trdma-tx")
	d.rxDMA = k.Machine.NewDMA("trdma-rx")
	for i := 0; i < cfg.TxBuffers; i++ {
		d.txBufs = append(d.txBufs, rtpc.NewBuffer("txdma"+strconv.Itoa(i), cfg.DMABufferKind, 4096))
	}
	for i := 0; i < cfg.RxBuffers; i++ {
		d.rxBufs = append(d.rxBufs, rtpc.NewBuffer("rxdma"+strconv.Itoa(i), cfg.DMABufferKind, 4096))
	}
	d.preTxFn = d.preTransmit
	d.txDMAFn = d.txDMADone
	d.txCardFn = d.txCard
	d.txStatusFn = d.txStatus
	d.txIntr = []rtpc.Seg{
		rtpc.Do("intr-dispatch", timing.IntrDispatchCost),
		{Name: "tx-complete", Cost: timing.CompletionCost, Fn: d.txComplete},
	}
	d.macSegs = []rtpc.Seg{
		rtpc.Do("intr-dispatch", timing.IntrDispatchCost),
		rtpc.Do("parse-mac", timing.MACFrameCost),
		// Purge recovery is handled in txComplete via the status bit;
		// the mark only records that the interrupt saw the purge.
		{Name: "purge-seen"},
	}
	st.OnReceive(d.frameArrived)
	st.SetCopyGate(d.haveRxBuffer)
	st.SetPromiscuousMAC(cfg.PromiscuousMAC)
	return d
}

// DriverName implements kernel.Driver.
func (d *Driver) DriverName() string { return "tr0" }

// Ioctl implements the connection-setup commands the paper added.
func (d *Driver) Ioctl(cmd string, arg any) (any, error) {
	switch cmd {
	case "compute-header":
		// Build a Token Ring header for a destination once, for the life
		// of the connection (§3's split-out header function).
		dst, ok := arg.(ring.Addr)
		if !ok {
			return nil, fmt.Errorf("tr0: compute-header wants a ring.Addr")
		}
		d.stats.HeaderComps++
		return BuildRingHeader(d.st.Addr(), dst), nil
	case "get-output-handle":
		// The function handle a source driver uses for direct
		// driver-to-driver transmission (§2).
		return d.Output, nil
	case "config":
		return d.cfg, nil
	default:
		return nil, fmt.Errorf("tr0: unknown ioctl %q", cmd)
	}
}

// Station exposes the underlying ring station.
func (d *Driver) Station() *ring.Station { return d.st }

// Config reports the active configuration.
func (d *Driver) Config() Config { return d.cfg }

// Stats returns a snapshot of driver accounting.
func (d *Driver) Stats() Stats { return d.stats }

// SetHandler installs the receive handler for a class.
func (d *Driver) SetHandler(c Class, h Handler) { d.handlers[c] = h }

// BuildRingHeader constructs the 14-byte MAC header plus LLC bytes that
// precede every packet. Only its length matters to the model, but the
// bytes are real so monitor captures decode.
func BuildRingHeader(src, dst ring.Addr) []byte {
	h := make([]byte, 22)
	h[0] = ring.EncodeAC(0, false)
	h[1] = ring.EncodeFC(ring.LLC)
	h[2], h[3] = byte(dst>>8), byte(dst)
	h[8], h[9] = byte(src>>8), byte(src)
	h[14] = 0xAA // SNAP
	h[15] = 0xAA
	return h
}

// ---- transmit path ----

// Output queues a packet for transmission. Safe to call from any level;
// the driver's own work runs at network interrupt level.
//
//ctmsvet:hotpath
func (d *Driver) Output(p *Outgoing) {
	sim.Checkf(p.Size > 0, "zero-size packet")
	q := 0
	if d.cfg.DriverPriority && p.Class == ClassCTMSP {
		q = 1
	}
	p.queuedAt = d.k.Sched().Now()
	d.txQueues[q] = append(d.txQueues[q], p) //ctmsvet:allow hotpath tx queue grows to its backlog high-water mark once, then reuses the array
	d.stats.TxQueued[p.Class]++
	if depth := len(d.txQueues[0]) + len(d.txQueues[1]); depth > d.stats.MaxTxQueue {
		d.stats.MaxTxQueue = depth
	}
	d.pumpTx()
}

//ctmsvet:hotpath
func (d *Driver) freeTxBuf() *rtpc.Buffer {
	for _, b := range d.txBufs {
		if !b.InUse() {
			return b
		}
	}
	return nil
}

//ctmsvet:hotpath
func (d *Driver) nextTx() *Outgoing {
	for q := 1; q >= 0; q-- {
		if len(d.txQueues[q]) == 0 {
			continue
		}
		pick := 0
		// The historical critical-section bug: a transmit-complete
		// interrupt racing the enqueue leaves the list head stale, so a
		// backlogged queue occasionally serves its second entry first.
		if d.cfg.UnprotectedQueueBug && len(d.txQueues[q]) >= 2 && d.k.Machine.RNG().Bool(0.25) {
			d.stats.QueueRaces++
			pick = 1
		}
		p := d.txQueues[q][pick]
		d.txQueues[q] = append(d.txQueues[q][:pick], d.txQueues[q][pick+1:]...)
		return p
	}
	return nil
}

type wireItem struct {
	p   *Outgoing
	buf *rtpc.Buffer
}

// pumpTx starts the copy stage for the next queued packet if a fixed DMA
// buffer is free and no copy is in progress. The wire stage below is
// constrained to send one packet completely before starting another —
// that constraint is what preserves packet sequence (§3).
//
//ctmsvet:hotpath
func (d *Driver) pumpTx() {
	if d.copyActive {
		return
	}
	buf := d.freeTxBuf()
	if buf == nil {
		return
	}
	p := d.nextTx()
	if p == nil {
		return
	}
	d.copyActive = true
	d.copying = wireItem{p: p, buf: buf}
	buf.Fill(p.Size, p) // reserve the buffer for this packet's copy
	if w := d.k.Sched().Now() - p.queuedAt; w > d.stats.MaxQueueWait {
		d.stats.MaxQueueWait = w
	}

	copyBytes := p.CopyBytes
	if copyBytes <= 0 {
		copyBytes = p.Size
	}
	m := d.k.Machine
	// Driver entry: queue manipulation, buffer setup, adapter register
	// programming. The program is rewritten in place: the previous copy
	// task has already reached its final mark (copies are serialized).
	segs := append(d.copySegs[:0], rtpc.Do("driver-entry", 120*sim.Microsecond)) //ctmsvet:allow hotpath cold refill path: the copy program grows only until it first reaches its longest shape, then is rewritten in place
	if !d.cfg.PrecomputeHeader {
		d.stats.HeaderComps++
		segs = append(segs, rtpc.Do("compute-ring-header", d.cfg.HeaderComputeCost)) //ctmsvet:allow hotpath cold refill path: the copy program grows only until it first reaches its longest shape, then is rewritten in place
	}
	if p.NoCopy {
		// Pointer transfer: only the descriptor list is built by the CPU.
		segs = append(segs, rtpc.Do("build-descriptors", 60*sim.Microsecond)) //ctmsvet:allow hotpath cold refill path: the copy program grows only until it first reaches its longest shape, then is rewritten in place
	} else {
		// The CPU copies the packet from mbufs (system memory) into the
		// fixed DMA buffer — 1 µs/byte when the buffer is in IO Channel
		// Memory. The copy loop is interruptible, so it is chunked.
		segs = m.AppendCopySegs(segs, "copy-to-dma-buf", copyBytes, rtpc.SystemMemory, d.cfg.DMABufferKind)
	}
	segs = append(segs, //ctmsvet:allow hotpath cold refill path: the copy program grows only until it first reaches its longest shape, then is rewritten in place
		rtpc.Do("driver-jitter", m.Jitter(40*sim.Microsecond)),
		rtpc.Seg{Name: "pre-transmit", Fn: d.preTxFn},
	)
	d.copySegs = segs
	d.k.CPU().Submit(kernel.LevelNet, "tr0.start-output", segs, nil)
}

// preTransmit is the copy stage's final mark: measurement point 3, then
// the hand-off to the wire stage.
//
//ctmsvet:hotpath
func (d *Driver) preTransmit() []rtpc.Seg {
	item := d.copying
	d.copying = wireItem{}
	if item.p.PreTransmit != nil {
		item.p.PreTransmit()
	}
	d.copyActive = false
	d.wireQ = append(d.wireQ, item) //ctmsvet:allow hotpath cold refill path: the wire queue holds at most TxBuffers items and grows only until it first reaches that depth
	d.pumpWire()
	d.pumpTx() // another buffer may be free for the next copy
	return nil
}

// pumpWire starts the adapter on the next fully-copied packet, strictly
// in copy order.
//
//ctmsvet:hotpath
func (d *Driver) pumpWire() {
	if d.wireBusy || len(d.wireQ) == 0 {
		return
	}
	d.wire = d.wireQ[0]
	n := copy(d.wireQ, d.wireQ[1:])
	d.wireQ[n] = wireItem{}
	d.wireQ = d.wireQ[:n]
	d.wireBusy = true
	d.issueTransmit()
}

// issueTransmit gives the adapter the transmit command for the wire
// stage's packet: the card DMAs the frame out of the fixed buffer,
// processes it, and puts it on the ring.
//
//ctmsvet:hotpath
func (d *Driver) issueTransmit() {
	p := d.wire.p
	src := d.wire.buf.Kind
	if p.NoCopy {
		src = rtpc.SystemMemory // the adapter DMAs straight from mbufs
	}
	d.txDMA.Transfer(p.Size, src, "tx", d.txDMAFn)
}

// txDMADone runs when the frame is in the adapter: firmware latency, with
// its jitter drawn now, then the frame goes to the ring.
//
//ctmsvet:hotpath
func (d *Driver) txDMADone() {
	card := d.timing.TxCardLatency + d.k.Machine.Jitter(d.timing.CardJitterMax)
	d.k.Sched().After(card, "tr0.tx-card", d.txCardFn)
}

// txCard puts the wire stage's packet on the ring in the frame embedded in
// its envelope.
//
//ctmsvet:hotpath
func (d *Driver) txCard() {
	p := d.wire.p
	prio := 0
	if p.Class == ClassCTMSP {
		prio = d.cfg.CTMSPRingPriority
	}
	p.frame.InitData(d.st.Addr(), p.Dst, prio, p.Size+RingOverhead, p.Capture, p)
	d.st.Transmit(&p.frame, d.txStatusFn)
}

// txStatus receives the returning frame's delivery status and raises the
// transmit-complete interrupt.
//
//ctmsvet:hotpath
func (d *Driver) txStatus(s ring.DeliveryStatus) {
	d.wireStatus = s
	d.k.CPU().Submit(kernel.LevelNet, "tr0.tx-intr", d.txIntr, nil)
}

// txComplete is the transmit-complete interrupt's work.
//
//ctmsvet:hotpath
func (d *Driver) txComplete() []rtpc.Seg {
	p, buf, s := d.wire.p, d.wire.buf, d.wireStatus
	if s.PurgeLost && d.cfg.PurgeInterrupt {
		// Hypothetical adapter: retransmit the packet still sitting in
		// the fixed DMA buffer.
		d.stats.Retransmits++
		d.issueTransmit()
		return nil
	}
	// Real adapter: the driver never learns about a purge loss.
	d.wire = wireItem{}
	buf.Clear()
	d.wireBusy = false
	d.stats.TxDone[p.Class]++
	if p.Done != nil {
		p.Done(s)
	}
	p.release() // transmit side is finished with the envelope
	d.pumpWire()
	d.pumpTx()
	return nil
}

// ---- receive path ----

func (d *Driver) haveRxBuffer() bool {
	free := 0
	for _, b := range d.rxBufs {
		if !b.InUse() {
			free++
		}
	}
	if free > d.rxPending {
		return true
	}
	d.stats.RxNoBuffer++
	d.k.Sched().Trace().AddEvent(d.k.Sched().Now(), EvRxDrop, int64(d.rxPending), int64(free))
	return false
}

//ctmsvet:hotpath
func (d *Driver) claimRxBuf() *rtpc.Buffer {
	for _, b := range d.rxBufs {
		if !b.InUse() {
			return b
		}
	}
	return nil
}

// rxJob carries one received frame from wire arrival to the end of its
// receive interrupt. Several frames can be in flight (up to RxBuffers
// claimed plus those still in card firmware), so jobs come from a free
// list; each job's callbacks and its interrupt program are bound once,
// when the job is first built. A job returns to the list when both its
// interrupt task has finished (the handler's segments included) and its
// buffer has been released, so the Received it carries stays valid for
// the handler's whole copy path.
type rxJob struct {
	d    *Driver
	f    *ring.Frame
	size int
	buf  *rtpc.Buffer
	rcv  Received
	// taskDone and released are the two conditions for recycling.
	taskDone, released bool

	segs     []rtpc.Seg // [intr-dispatch, classify]
	cardFn   func()
	dmaFn    func()
	doneFn   func()
	relFn    func()
	relSegFn func() []rtpc.Seg
	nextFree *rxJob
}

//ctmsvet:hotpath
func (d *Driver) allocRxJob() *rxJob {
	if j := d.rxFree; j != nil {
		d.rxFree, j.nextFree = j.nextFree, nil
		return j
	}
	return d.newRxJob()
}

// newRxJob builds a receive job and binds its callbacks: the cold refill
// path of the job free list.
func (d *Driver) newRxJob() *rxJob {
	j := &rxJob{d: d}
	j.cardFn = j.cardDone
	j.dmaFn = j.interrupt
	j.doneFn = j.finishTask
	j.relFn = j.releaseBuf
	j.relSegFn = j.releaseMark
	j.segs = []rtpc.Seg{
		rtpc.Do("intr-dispatch", d.timing.IntrDispatchCost),
		{Name: "classify", Cost: d.timing.ClassifyCost, Fn: j.classify},
	}
	return j
}

//ctmsvet:hotpath
func (d *Driver) putRxJob(j *rxJob) {
	j.f, j.buf = nil, nil
	j.rcv = Received{}
	j.taskDone, j.released = false, false
	j.nextFree, d.rxFree = d.rxFree, j
}

// frameArrived runs when a frame addressed to this station completes on
// the wire: card firmware latency, DMA into a fixed rx buffer, then the
// receive interrupt.
//
//ctmsvet:hotpath
func (d *Driver) frameArrived(f *ring.Frame, _ sim.Time) {
	if f.Kind == ring.MAC {
		d.macFrame(f)
		return
	}
	d.rxPending++
	j := d.allocRxJob()
	j.f, j.size = f, f.Size-RingOverhead
	card := d.timing.RxCardLatency + d.k.Machine.Jitter(d.timing.CardJitterMax)
	d.k.Sched().After(card, "tr0.rx-card", j.cardFn)
}

// cardDone claims a fixed rx buffer after card firmware latency and DMAs
// the frame into it.
//
//ctmsvet:hotpath
func (j *rxJob) cardDone() {
	d := j.d
	buf := d.claimRxBuf()
	if buf == nil {
		// Race: buffers filled since the copy gate passed.
		d.rxPending--
		d.stats.RxNoBuffer++
		d.k.Sched().Trace().AddEvent(d.k.Sched().Now(), EvRxDrop, int64(d.rxPending), int64(j.size))
		d.putRxJob(j)
		return
	}
	buf.Fill(j.size, j.f)
	d.rxPending--
	j.buf = buf
	d.rxDMA.Transfer(j.size, buf.Kind, "rx", j.dmaFn)
}

// interrupt raises the receive interrupt once the frame is in the buffer.
//
//ctmsvet:hotpath
func (j *rxJob) interrupt() {
	j.d.k.CPU().Submit(kernel.LevelNet, "tr0.rx-intr", j.segs, j.doneFn)
}

// classify is the split point: it classifies the packet and runs the
// class handler, whose returned copy path executes at interrupt level.
//
//ctmsvet:hotpath
func (j *rxJob) classify() []rtpc.Seg {
	d, f := j.d, j.f
	class := classOf(f)
	d.stats.RxFrames[class]++
	j.rcv = Received{
		Frame:      f,
		Class:      class,
		Size:       j.size,
		At:         d.k.Sched().Now(),
		Buffer:     j.buf,
		release:    j.relFn,
		releaseSeg: j.relSegFn,
	}
	h := d.handlers[class]
	if h == nil {
		j.rcv.Release()
		d.envelopeSeen(f)
		return nil
	}
	segs := h(&j.rcv)
	d.envelopeSeen(f)
	return segs
}

//ctmsvet:hotpath
func (j *rxJob) releaseBuf() {
	j.buf.Clear()
	j.released = true
	if j.taskDone {
		j.d.putRxJob(j)
	}
}

//ctmsvet:hotpath
func (j *rxJob) releaseMark() []rtpc.Seg {
	j.rcv.Release()
	return nil
}

//ctmsvet:hotpath
func (j *rxJob) finishTask() {
	j.taskDone = true
	if j.released {
		j.d.putRxJob(j)
	}
}

// macFrame handles a MAC frame in promiscuous mode: pure interrupt
// overhead, which is the point of experiment E7.
func (d *Driver) macFrame(f *ring.Frame) {
	d.stats.RxMACFrames++
	segs := d.macSegs[:2]
	if d.cfg.PurgeInterrupt && f.MAC == ring.MACRingPurge {
		segs = d.macSegs
	}
	d.k.CPU().Submit(kernel.LevelNet, "tr0.mac-intr", segs, nil)
}

// envelopeSeen releases the receive-side envelope reference once the class
// handler has returned: handlers read the Outgoing synchronously (routed
// fields, chain tag) and keep only copied values in the segments they
// return, so after this point the receiver never touches the envelope.
//
//ctmsvet:hotpath
func (d *Driver) envelopeSeen(f *ring.Frame) {
	if p, ok := f.Payload.(*Outgoing); ok {
		p.release()
	}
}

// classOf maps a frame to its driver class by inspecting the payload tag.
func classOf(f *ring.Frame) Class {
	if p, ok := f.Payload.(*Outgoing); ok {
		return p.Class
	}
	return ClassIP
}

package rtpc

import "repro/internal/sim"

// DMA is one adapter's DMA engine. Transfers on the same engine are
// serialized; a transfer targeting system memory steals CPU cycles for its
// duration (registered with the machine's CPU), while a transfer targeting
// IO Channel Memory proceeds entirely on the IO Channel Bus.
//
// A transfer runs once per frame on every adapter, so the engine keeps no
// per-transfer garbage: queued transfers sit in a head-indexed array that
// is reused across the run, the one transfer in flight ends through a
// callback built once at construction, and the "<engine>.<transfer>" event
// label is cached.
type DMA struct {
	cpu     *CPU
	cost    CostModel
	name    string
	busy    bool
	queue   []dmaXfer
	head    int // index of the next queued transfer; queue is never re-sliced from the front
	cur     dmaXfer
	endFn   func()
	started uint64
	bytes   uint64

	// One-entry label cache: an engine serves one transfer name in
	// practice (an adapter's tx or rx channel).
	labelFor, label string
}

type dmaXfer struct {
	n      int
	target MemoryKind
	name   string
	done   func()
}

// NewDMA creates a DMA engine attached to the machine's CPU for
// interference accounting.
func NewDMA(cpu *CPU, cost CostModel, name string) *DMA {
	d := &DMA{cpu: cpu, cost: cost, name: name}
	d.endFn = d.end
	return d
}

// Busy reports whether a transfer is in progress.
func (d *DMA) Busy() bool { return d.busy }

// Transfers reports how many transfers have started.
func (d *DMA) Transfers() uint64 { return d.started }

// Bytes reports total bytes moved.
func (d *DMA) Bytes() uint64 { return d.bytes }

// Transfer moves n bytes to/from a buffer in target memory, then calls
// done. If the engine is busy the transfer queues behind earlier ones.
// Per-frame callers pass a done bound once (a method value stored at
// construction), so a transfer allocates nothing.
//
//ctmsvet:hotpath
func (d *DMA) Transfer(n int, target MemoryKind, name string, done func()) {
	if n < 0 {
		sim.Checkf(false, "negative DMA length %d", n)
	}
	d.queue = append(d.queue, dmaXfer{n: n, target: target, name: name, done: done}) //ctmsvet:allow hotpath cold refill path: the head-indexed queue grows only until it first reaches its steady-state depth, then reuses the array
	d.pump()
}

//ctmsvet:hotpath
func (d *DMA) pump() {
	if d.busy || d.head == len(d.queue) {
		return
	}
	x := d.queue[d.head]
	d.queue[d.head] = dmaXfer{}
	d.head++
	switch {
	case d.head == len(d.queue):
		d.queue, d.head = d.queue[:0], 0
	case d.head >= 32 && d.head*2 >= len(d.queue):
		n := copy(d.queue, d.queue[d.head:])
		clear(d.queue[n:])
		d.queue, d.head = d.queue[:n], 0
	}
	d.cur = x
	d.busy = true
	d.started++
	d.bytes += uint64(x.n)
	d.cpu.dmaStarted(x.target)
	d.cpu.Scheduler().After(d.cost.DMACost(x.n, x.target), d.labelOf(x.name), d.endFn)
}

// end completes the transfer in flight. done may queue the next transfer
// (which pump starts at once, overwriting cur), so cur is read first.
//
//ctmsvet:hotpath
func (d *DMA) end() {
	x := d.cur
	d.cur = dmaXfer{}
	d.cpu.dmaEnded(x.target)
	d.busy = false
	if x.done != nil {
		x.done()
	}
	d.pump()
}

// labelOf returns the cached "<engine>.<transfer>" event label.
//
//ctmsvet:hotpath
func (d *DMA) labelOf(name string) string {
	if name != d.labelFor || d.label == "" {
		d.labelFor = name
		d.label = d.name + "." + name
	}
	return d.label
}

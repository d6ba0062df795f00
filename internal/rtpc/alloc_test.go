package rtpc

import (
	"testing"

	"repro/internal/sim"
)

// Buffer.Fill and DMA.Transfer run once per frame on every adapter: a
// passing call must allocate nothing, and a violating one must still
// panic with its invariant message.

func TestBufferFillAllocatesNothing(t *testing.T) {
	b := NewBuffer("rxdma0", IOChannelMemory, 4096)
	content := &struct{}{}
	if n := testing.AllocsPerRun(200, func() {
		b.Fill(2000, content)
		b.Clear()
	}); n != 0 {
		t.Fatalf("Buffer.Fill allocates %.1f per call; want 0", n)
	}
}

func TestBufferFillOverrunPanics(t *testing.T) {
	b := NewBuffer("rxdma0", IOChannelMemory, 4096)
	defer func() {
		r := recover()
		want := `sim: invariant violated: buffer "rxdma0" overrun: 5000 > 4096`
		if r == nil || r.(string) != want {
			t.Fatalf("panic %v; want %q", r, want)
		}
	}()
	b.Fill(5000, nil)
}

func TestDMATransferAllocatesNothing(t *testing.T) {
	sched, cpu := newCPU()
	dma := NewDMA(cpu, DefaultCostModel(), "trdma-rx")
	ends := 0
	done := func() { ends++ }
	if n := testing.AllocsPerRun(200, func() {
		dma.Transfer(2000, IOChannelMemory, "rx", done)
		dma.Transfer(2000, SystemMemory, "rx", done) // queues behind the first
		sched.Run()
	}); n != 0 {
		t.Fatalf("DMA.Transfer allocates %.1f per transfer pair; want 0", n)
	}
	if ends != 2*201 || dma.Transfers() != 2*201 {
		t.Fatalf("completed %d of %d transfers", ends, dma.Transfers())
	}
}

func TestDMANegativeLengthPanics(t *testing.T) {
	_, cpu := newCPU()
	dma := NewDMA(cpu, DefaultCostModel(), "trdma-rx")
	defer func() {
		r := recover()
		want := "sim: invariant violated: negative DMA length -1"
		if r == nil || r.(string) != want {
			t.Fatalf("panic %v; want %q", r, want)
		}
	}()
	dma.Transfer(-1, IOChannelMemory, "rx", nil)
}

// A transfer's completion callback may queue the next transfer on the
// same engine: the queued one must start at once, and the label cache
// must follow a change of transfer name.
func TestDMADoneCanChainTransfers(t *testing.T) {
	sched, cpu := newCPU()
	cost := DefaultCostModel()
	dma := NewDMA(cpu, cost, "adapter")
	var ends []sim.Time
	left := 3
	var next func()
	next = func() {
		ends = append(ends, sched.Now())
		if left--; left > 0 {
			dma.Transfer(1000, IOChannelMemory, "b", next)
		}
	}
	dma.Transfer(1000, IOChannelMemory, "a", next)
	sched.Run()
	per := cost.DMACost(1000, IOChannelMemory)
	if len(ends) != 3 || ends[0] != per || ends[1] != 2*per || ends[2] != 3*per {
		t.Fatalf("chained transfers ended at %v; want multiples of %v", ends, per)
	}
	if dma.Busy() || dma.labelOf("a") != "adapter.a" || dma.labelOf("b") != "adapter.b" {
		t.Fatalf("busy=%t labels %q %q", dma.Busy(), dma.labelOf("a"), dma.labelOf("b"))
	}
}

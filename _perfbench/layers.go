package main

import (
	"runtime"
	"time"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/playout"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Layer drivers: timed calls into one layer's public functions, each in
// a steady state of its own, so a layer's cost is visible apart from the
// workload around it.

const (
	driverBatches = 9
	driverOps     = 20000
)

// perOp runs driverBatches batches of driverOps calls. batch prepares
// one batch outside the timed region and returns its per-call function.
// It reports the median nanoseconds per call and the heap allocations
// per call over all batches.
func perOp(batch func() func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	var times []float64
	var mallocs uint64
	for b := 0; b < driverBatches; b++ {
		op := batch()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < driverOps; i++ {
			op(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		times = append(times, float64(el.Nanoseconds())/driverOps)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	return median(times), float64(mallocs) / (driverBatches * driverOps)
}

// sink keeps driver results live so the compiler cannot drop the calls.
var sink int

// layerDrivers times each layer driver and the workload's population
// compile.
func (rs *runState) layerDrivers() map[string]float64 {
	vals := map[string]float64{}

	// sim: 1024 pending events, each re-arming itself 1024 µs later, so
	// every call fires one event and schedules one.
	vals["sim.event_ns"], vals["sim.event_allocs"] = perOp(func() func(int) {
		s := sim.NewScheduler()
		const pending = 1024
		var tick func()
		tick = func() { s.After(pending*sim.Microsecond, "perfbench.tick", tick) }
		for i := 0; i < pending; i++ {
			s.At(sim.Time(i)*sim.Microsecond, "perfbench.tick", tick)
		}
		s.RunUntil(pending * sim.Microsecond) // reach steady state
		return func(int) { s.RunUntil(s.Now() + sim.Microsecond) }
	})

	// kernel: a 2000-byte chain (one cluster plus small mbufs) allocated
	// into a caller-owned shell and freed.
	vals["kernel.chain_ns"], _ = perOp(func() func(int) {
		p := kernel.NewPool(sim.NewScheduler(), 0, 0)
		var c kernel.Chain
		return func(int) {
			if p.AllocInto(&c, 2000) {
				sink += c.Len()
			}
			p.Free(&c)
		}
	})

	// ctmsp: encode, decode and classify one header.
	vals["ctmsp.header_ns"], _ = perOp(func() func(int) {
		return func(i int) {
			b := ctmsp.Header{DstDevice: 1, PacketNum: uint32(i), Length: 2000}.Encode()
			h, err := ctmsp.DecodeHeader(b)
			if err == nil && ctmsp.Classify(b) {
				sink += int(h.Length)
			}
		}
	})

	// ring: build a data frame, encode it around a 96-byte captured INFO
	// field (the capture bound), decode and verify it.
	vals["ring.frame_codec_ns"], _ = perOp(func() func(int) {
		info := make([]byte, 96)
		return func(i int) {
			info[0] = byte(i)
			f := ring.NewDataFrame(1, 2, 4, 2000, info, nil)
			d, err := ring.DecodeFrame(ring.EncodeFrame(f, info))
			if err == nil {
				sink += len(d.Info)
			}
		}
	})

	// playout: a 2000-byte packet every 12 ms into a buffer draining at
	// the matching rate.
	vals["playout.deliver_ns"], _ = perOp(func() func(int) {
		const interval = 12 * sim.Millisecond
		p := playout.New(2000/interval.Seconds(), 40*sim.Millisecond)
		return func(i int) { p.Deliver(2000, sim.Time(i)*interval) }
	})

	// stats: one latency sample into a fresh histogram per batch.
	vals["stats.hist_add_ns"], _ = perOp(func() func(int) {
		h := stats.NewHistogram(100, "perfbench")
		return func(i int) { h.Add(float64(i % 50000)) }
	})

	// workload: compile the population of each input, as set-up does.
	var compiles []float64
	for _, in := range rs.inputs {
		pop, seed, dur := in.population()
		if pop == nil {
			continue
		}
		t0 := time.Now()
		sink += len(pop.WithDefaults().Compile(sim.NewRNG(seed).Fork("population"), dur))
		compiles = append(compiles, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	vals["workload.compile_ms"] = median(compiles)
	return vals
}

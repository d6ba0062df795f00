package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/topo"
)

// Closure tolerances of the traced run. CPU shares are exact shares of
// the parsed samples, so they sum to 1 up to rounding; allocation sites
// come from the heap profile at MemProfileRate=1 and, with the tiny
// allocations it cannot see, must explain the runtime's malloc count
// over the same window to within 1 %.
const (
	cpuClosureTol   = 1e-9
	allocClosureTol = 0.01
	// minCPUSamples is the fewest CPU samples a ledger is drawn from;
	// the CPU-profiled window lasts at least minCPUWindow so that a short
	// --seconds still collects them (the profiler samples at 100 Hz).
	minCPUSamples = 200
	minCPUWindow  = 3.0 // seconds
)

const repoInternal = "repro/internal/"

// layerOf attributes a stack, innermost frame first, to a ledger bucket:
// the layer of its innermost repo frame, so runtime callees such as
// mallocgc are charged to the layer that called them. A stack with no
// repo frame at all is runtime's; one whose innermost repo frame is in a
// package outside ledgerLayers (or in this benchmark, package main) is
// other's.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoInternal); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range ledgerLayers {
				if l == pkg {
					return l
				}
			}
			return bucketOther
		}
		if strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "main.") {
			return bucketOther
		}
	}
	return bucketRuntime
}

// cpuShares attributes every CPU sample and returns each bucket's share
// of the profile's CPU time.
func cpuShares(p *cpuProfile) map[string]float64 {
	ns := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		ns[layerOf(s.stack)] += s.nanos
		total += s.nanos
	}
	out := map[string]float64{}
	for b, n := range ns {
		out[b] = float64(n) / float64(total)
	}
	return out
}

// heapSites snapshots the heap profile: cumulative allocated objects per
// stack.
func heapSites() map[string]siteCount {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[string]siteCount, n)
	for _, r := range recs[:n] {
		// One stack has a record per allocation size.
		stk := r.Stack()
		key := fmt.Sprint(stk)
		out[key] = siteCount{stack: stk, objects: out[key].objects + r.AllocObjects}
	}
	return out
}

type siteCount struct {
	stack   []uintptr
	objects int64
}

// allocsByLayer attributes the objects allocated between two heap
// snapshots to ledger buckets.
func allocsByLayer(before, after map[string]siteCount) map[string]int64 {
	out := map[string]int64{}
	for key, a := range after {
		d := a.objects - before[key].objects
		if d == 0 {
			continue
		}
		var names []string
		frames := runtime.CallersFrames(a.stack)
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(names)] += d
	}
	return out
}

// runChecked sets up and runs input k untimed; a failure counts as a
// failed run.
func (rs *runState) runChecked(k int) (any, prepared, error) {
	p, _, err := setup(rs.inputs[k])
	if err == nil {
		var raw any
		if raw, err = execute(p, rs.workers); err == nil {
			return raw, p, nil
		}
	}
	rs.record([]string{err.Error()})
	return nil, p, err
}

// heldRun is a run made inside a traced window, checked after the window
// closes so the checks stay out of the ledger.
type heldRun struct {
	k   int
	p   prepared
	raw any
}

func (rs *runState) checkHeld(held []heldRun) {
	for _, h := range held {
		rs.record(checkOutcome(reduce(h.p, h.raw), &rs.refs[h.k]))
	}
}

// tinyAllocs reads the runtime's count of allocations packed into tiny
// blocks. The heap profile records a tiny block once, when it is
// carved, and never the allocations later packed into it, so these are
// the one part of the malloc count no layer can be charged with.
func tinyAllocs() (tiny, profiled uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// traced is the --trace 1 run, in three windows after the reference
// runs: untraced repetitions for a third of the time (the base for
// trace.overhead); the layer drivers; a CPU-profiled window for another
// third; and one repetition of the first input with every allocation
// profiled (MemProfileRate=1, far too slow to time). Counters come from
// the reference runs' public Results.
func (rs *runState) traced(seconds float64, deadline time.Time) (map[string]float64, error) {
	topo.SetWallClock(func() int64 { return time.Now().UnixNano() })
	defer topo.SetWallClock(nil)
	rs.loop(seconds/3, deadline)
	vals := rs.layerDrivers()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tracedWall := make([][]float64, len(rs.inputs))
	var held []heldRun
	rs.repeat(1, max(seconds/3, minCPUWindow), deadline, func(k int) {
		t0 := time.Now()
		raw, p, err := rs.runChecked(k)
		if err == nil {
			tracedWall[k] = append(tracedWall[k], time.Since(t0).Seconds())
			held = append(held, heldRun{k, p, raw})
		}
	})
	pprof.StopCPUProfile()
	rs.checkHeld(held)
	var traced, untraced float64
	for k := range rs.inputs {
		if len(tracedWall[k]) > 0 {
			traced += median(tracedWall[k])
			untraced += median(column(rs.samples[k], func(s sample) float64 { return (s.setup + s.wall).Seconds() }))
		}
	}
	vals["trace.overhead"] = traced / untraced
	cpu, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := cpuShares(cpu)

	// The heap profile publishes an allocation two GC cycles after it
	// happens, so two collections settle it before each snapshot. The
	// profiling rate is 1 only around the run itself.
	defaultRate := runtime.MemProfileRate
	runtime.GC()
	runtime.GC()
	before := heapSites()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tiny0, prof0 := tinyAllocs()
	runtime.MemProfileRate = 1
	raw, p, err := rs.runChecked(0)
	runtime.MemProfileRate = 0
	runtime.ReadMemStats(&m1)
	tiny1, prof1 := tinyAllocs()
	runtime.GC()
	runtime.GC()
	after := heapSites()
	runtime.MemProfileRate = defaultRate
	if err != nil {
		return nil, err
	}
	rs.checkHeld([]heldRun{{0, p, raw}})

	frames := float64(rs.outs[0].frames)
	allocs := allocsByLayer(before, after)
	var shareSum float64
	var allocSum int64
	for _, b := range append(append([]string(nil), ledgerLayers...), bucketRuntime, bucketOther) {
		shareSum += shares[b]
		allocSum += allocs[b]
		vals[b+".allocs_per_frame"] = float64(allocs[b]) / frames
		if b == bucketRuntime {
			vals["runtime.gc_share"] = shares[b]
		} else {
			vals[b+".cpu_share"] = shares[b]
		}
	}
	tiny := tiny1 - tiny0
	vals["runtime.tiny_allocs_per_frame"] = float64(tiny) / frames
	mallocs := m1.Mallocs - m0.Mallocs
	closure := float64(uint64(allocSum)+tiny) / float64(mallocs)
	vals["ledger.alloc_closure"] = closure
	vals["ledger.cpu_samples"] = float64(len(cpu.samples))
	if math.Abs(shareSum-1) > cpuClosureTol {
		rs.fails = append(rs.fails, fmt.Sprintf("ledger: cpu shares sum to %.12f, not 1 ± %g", shareSum, cpuClosureTol))
	}
	if len(cpu.samples) < minCPUSamples {
		rs.fails = append(rs.fails, fmt.Sprintf("ledger: %d cpu samples, fewer than %d", len(cpu.samples), minCPUSamples))
	}
	if math.Abs(closure-1) > allocClosureTol {
		rs.fails = append(rs.fails, fmt.Sprintf("ledger: layers and tiny blocks explain %d+%d of %d allocations (%.4f), outside 1 ± %g",
			allocSum, tiny, mallocs, closure, allocClosureTol))
	}
	if want := median(column(rs.samples[0], func(s sample) float64 { return float64(s.mallocs) })); math.Abs(float64(mallocs)-want) > allocClosureTol*want {
		rs.fails = append(rs.fails, fmt.Sprintf("ledger: the recorded simulation made %d allocations, its untraced repetitions %.0f",
			mallocs, want))
	}
	if got := prof1 - prof0; math.Abs(float64(allocSum)-float64(got)) > allocClosureTol*float64(got) {
		rs.fails = append(rs.fails, fmt.Sprintf("ledger: heap profile holds %d allocations, the runtime counted %d", allocSum, got))
	}
	rs.counters(vals)
	return vals, nil
}

// counters fills the per-layer counters read from the reference runs'
// public Results and from the untraced repetitions.
func (rs *runState) counters(vals map[string]float64) {
	var frames, sent, events, fwd, dropped, glitches, purgeLost uint64
	var rounds, skipped, unaccounted uint64
	var activeMin, util, tokenWait, queueWait, qmax, maxBuf float64
	var streams, admitted, shed, departed int
	var p99s []float64
	for _, o := range rs.outs {
		frames += o.frames
		sent += o.sent
		events += o.events
		fwd += o.forwarded
		dropped += o.routerDropped
		glitches += o.glitches
		purgeLost += o.purgeLost
		rounds += o.rounds
		skipped += o.skipped
		unaccounted += o.sent - o.frames - o.lost - uint64(o.linkInFlight)
		activeMin += o.activeMin
		util += o.ringUtil / float64(len(rs.outs))
		tokenWait = max(tokenWait, o.tokenWaitMaxMs)
		queueWait = max(queueWait, o.queueWaitMaxMs)
		qmax = max(qmax, float64(o.routerQueueMax))
		maxBuf = max(maxBuf, float64(o.maxBufferBytes))
		streams += o.streams
		admitted += o.admitted
		shed += o.shed
		departed += o.departed
		p99s = append(p99s, o.latencyP99Ms)
	}
	var stall, builds []float64
	var gc, gcSim float64
	for k, ss := range rs.samples {
		for _, s := range ss {
			stall = append(stall, s.stall)
			gc += float64(s.gcCycles)
			gcSim += rs.outs[k].ringSeconds
			if rs.inputs[k].mesh != nil {
				builds = append(builds, s.setup.Seconds())
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals["sim.events_per_frame"] = ratio(float64(events), float64(frames))
	vals["runtime.gc_cycles_per_sim_s"] = ratio(gc, gcSim)
	vals["ring.utilization"] = util
	vals["ring.token_wait_max_ms"] = tokenWait
	vals["ring.queue_wait_max_ms"] = queueWait
	vals["ring.purge_lost"] = float64(purgeLost)
	vals["router.forwards_per_frame"] = ratio(float64(fwd), float64(frames))
	vals["router.dropped"] = float64(dropped)
	vals["router.queue_max"] = qmax
	vals["topo.rounds"] = float64(rounds)
	vals["topo.skipped_share"] = ratio(float64(skipped), float64(rounds+skipped))
	vals["topo.events_per_round"] = ratio(float64(events), float64(rounds))
	vals["topo.barrier_stall_fraction"] = median(stall)
	vals["topo.build_s"] = median(builds)
	vals["session.admit_share"] = ratio(float64(admitted), float64(streams))
	vals["session.shed"] = float64(shed)
	vals["session.departed"] = float64(departed)
	vals["playout.glitches"] = float64(glitches)
	vals["playout.glitches_per_min"] = ratio(float64(glitches), activeMin)
	vals["playout.max_buffer_kb"] = maxBuf / 1024
	vals["playout.latency_p99_ms"] = median(p99s)
	vals["ledger.unaccounted_share"] = ratio(float64(unaccounted), float64(sent))
}

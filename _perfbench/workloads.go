package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Simulated durations. They are fixed by the benchmark, identical on every
// commit, and chosen for run-to-run steadiness only (README.md records why
// ring_churn's latency tail must not be tuned by them).
const (
	ringChurnDur = 30 * sim.Second
	meshDenseDur = 2 * sim.Second
	meshIdleDur  = 1 * sim.Second

	// meshSide is E20's 8×8 grid.
	meshSide = 8
)

// maxWorkers caps the sharded engine's worker count: a run never uses
// more workers than this, nor more than GOMAXPROCS.
const maxWorkers = 2

// workloadDef is one named workload: how many independent simulations a
// run cycles through, and how to derive the k-th one's input from the
// run's seed.
type workloadDef struct {
	name string
	subs int
	// input derives sub-simulation k's input. The program receives only
	// the generated session.Config or topo.Spec.
	input func(seed int64) input
}

// input is one generated simulation input: exactly one field is set.
type input struct {
	session *session.Config
	mesh    *topo.Spec
}

var workloads = []workloadDef{
	{name: "ring_churn", subs: 12, input: ringChurnInput},
	{name: "mesh_dense", subs: 10, input: meshDenseInput},
	{name: "mesh_idle", subs: 4, input: meshIdleInput},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// subSeeds derives a run's independent simulation seeds from its --seed
// with a splitmix64 finalizer, so nearby seeds give unrelated inputs.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		h := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		out[k] = int64(h >> 1)
	}
	return out
}

// ringChurnPopulation is E19's live population at 4 arrivals/s: Zipf 1.1
// over 32 titles, 3 s churn half-life, default codec mix.
func ringChurnPopulation() *workload.PopulationSpec {
	return &workload.PopulationSpec{
		ArrivalsPerSec: 4,
		ZipfSkew:       1.1,
		Titles:         32,
		ChurnHalfLife:  3 * sim.Second,
	}
}

func ringChurnInput(seed int64) input {
	return input{session: &session.Config{
		Name:           fmt.Sprintf("ring_churn-%d", seed),
		Seed:           seed,
		Duration:       ringChurnDur,
		BackgroundUtil: 0.05,
		Population:     ringChurnPopulation(),
	}}
}

func meshDenseInput(seed int64) input {
	spec := core.E20Topology(meshSide, seed, meshDenseDur)
	return input{mesh: &spec}
}

// meshIdleInput is E20's idle grid: no background, no population, three
// hand-placed streams (corner to corner, edge to edge, one ring local).
func meshIdleInput(seed int64) input {
	spec := core.E20Topology(meshSide, seed, meshIdleDur)
	spec.Name = fmt.Sprintf("mesh_idle-%d", seed)
	spec.BackgroundUtil = 0
	spec.Population = nil
	rings := meshSide * meshSide
	for _, s := range []struct {
		name     string
		src, dst int
	}{
		{"corner", 0, rings - 1},
		{"edge", meshSide - 1, rings - meshSide},
		{"local", rings / 2, rings / 2},
	} {
		spec.Streams = append(spec.Streams, topo.StreamSpec{
			StreamSpec: session.StreamSpec{
				Name:        s.name,
				PacketBytes: 500,
				Interval:    12 * sim.Millisecond,
				Class:       session.ClassStandard,
			},
			SrcRing: s.src,
			DstRing: s.dst,
		})
	}
	return input{mesh: &spec}
}

// population reports the input's population spec with the seed and
// duration it is compiled for (nil when the input has none).
func (in input) population() (*workload.PopulationSpec, int64, sim.Time) {
	if in.mesh != nil {
		return in.mesh.Population, in.mesh.Seed, in.mesh.Duration
	}
	return in.session.Population, in.session.Seed, in.session.Duration
}

// streamCount is one stream's frame accounting, the conservation check's
// input.
type streamCount struct {
	name                  string
	sent, delivered, lost uint64
}

// outcome is what one simulation produced, reduced to what the benchmark
// reports and checks. Every field is simulated, so it is a pure function
// of the input.
type outcome struct {
	ringSeconds float64 // simulated duration × rings
	frames      uint64  // delivered CTMSP frames
	sent, lost  uint64
	events      uint64 // scheduler events fired

	streams  int // configured plus generated streams
	admitted int
	shed     int
	departed int

	latencyMeanMs, latencyMaxMs float64
	latencyP99Ms                float64 // ring_churn only: per-packet playout latency
	glitches                    uint64
	activeMin                   float64 // admitted stream-minutes
	maxBufferBytes              int

	ringUtil                       float64 // mean over rings
	tokenWaitMaxMs, queueWaitMaxMs float64
	purgeLost                      uint64

	forwarded, routerDropped uint64 // mesh bridges
	routerQueueMax           int
	linkInFlight             int
	rounds, skipped          uint64 // mesh engine

	fingerprint string // mesh only
	counts      []streamCount
	// compiled is the arrival count the benchmark compiled itself from
	// the same (seed, spec); -1 when the input has no population.
	compiled int
}

// digest renders every simulated output the benchmark reports; repeated
// runs of one input must produce it byte for byte.
func (o *outcome) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rs=%g frames=%d sent=%d lost=%d events=%d streams=%d adm=%d shed=%d dep=%d ",
		o.ringSeconds, o.frames, o.sent, o.lost, o.events, o.streams, o.admitted, o.shed, o.departed)
	fmt.Fprintf(&b, "lat=%.9g/%.9g/%.9g gl=%d act=%.9g buf=%d util=%.9g tw=%.9g qw=%.9g pl=%d ",
		o.latencyMeanMs, o.latencyMaxMs, o.latencyP99Ms, o.glitches, o.activeMin, o.maxBufferBytes,
		o.ringUtil, o.tokenWaitMaxMs, o.queueWaitMaxMs, o.purgeLost)
	fmt.Fprintf(&b, "fwd=%d drop=%d qmax=%d infl=%d rounds=%d skipped=%d",
		o.forwarded, o.routerDropped, o.routerQueueMax, o.linkInFlight, o.rounds, o.skipped)
	return b.String()
}

// prepared is an input after set-up, ready to run.
type prepared struct {
	in       input
	net      *topo.Network
	compiled int
}

// setup does the timed set-up of one input. For a mesh that is topo.Build
// (census compile, route table, path admission). session.Run has no
// public set-up entry point, so for a session the benchmark times what it
// can reach: validating the Config and compiling the population's arrival
// schedule exactly as Run will (same seed fork, same duration).
func setup(in input) (prepared, time.Duration, error) {
	start := time.Now()
	p := prepared{in: in, compiled: -1}
	if in.mesh != nil {
		n, err := topo.Build(*in.mesh)
		if err != nil {
			return p, 0, err
		}
		p.net = n
		return p, time.Since(start), nil
	}
	cfg := in.session
	if err := cfg.Validate(); err != nil {
		return p, 0, err
	}
	if cfg.Population != nil {
		pop := cfg.Population.WithDefaults()
		p.compiled = len(pop.Compile(sim.NewRNG(cfg.Seed).Fork("population"), cfg.Duration))
	}
	return p, time.Since(start), nil
}

// execute runs a prepared input. The caller times it; reduction to an
// outcome happens in reduce, outside the timed region.
func execute(p prepared, workers int) (any, error) {
	if p.net != nil {
		return p.net.Run(workers), nil
	}
	fired := sim.TotalFired()
	res, err := session.Run(*p.in.session)
	if err != nil {
		return nil, err
	}
	return sessionRun{res: res, events: sim.TotalFired() - fired}, nil
}

// sessionRun pairs session results with the event count read around the
// run from the process-wide scheduler totals.
type sessionRun struct {
	res    *session.Results
	events uint64
}

func reduce(p prepared, raw any) *outcome {
	switch r := raw.(type) {
	case *topo.Results:
		return reduceMesh(r)
	case sessionRun:
		o := reduceSession(r.res)
		o.events = r.events
		o.compiled = p.compiled
		return o
	}
	panic(fmt.Sprintf("perfbench: unknown run result %T", raw))
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

func reduceSession(r *session.Results) *outcome {
	o := &outcome{
		ringSeconds: r.Config.Duration.Seconds(),
		streams:     len(r.Streams),
		admitted:    r.Admitted,
		shed:        r.ShedN,
		departed:    r.Departed,
		ringUtil:    r.RingUtilization,
		purgeLost:   r.Ring.PurgeLost,
		compiled:    -1,
	}
	o.tokenWaitMaxMs = ms(r.Ring.TokenWaitMax)
	o.queueWaitMaxMs = ms(r.Ring.QueueWaitMax)
	for _, s := range r.Streams {
		if !s.Decision.Admitted {
			continue
		}
		o.frames += s.Delivered
		o.sent += s.Sent
		o.lost += s.Lost
		o.glitches += s.Glitches
		o.activeMin += s.ActiveTime.Seconds() / 60
		o.maxBufferBytes = max(o.maxBufferBytes, s.MaxBufferBytes)
		o.counts = append(o.counts, streamCount{s.Spec.Name, s.Sent, s.Delivered, s.Lost})
	}
	if h := r.PlayoutLatency; h != nil && h.N() > 0 {
		// The histogram holds microseconds.
		o.latencyMeanMs = h.Mean() / 1000
		o.latencyMaxMs = h.Quantile(1) / 1000
		o.latencyP99Ms = h.Quantile(0.99) / 1000
	}
	return o
}

func reduceMesh(r *topo.Results) *outcome {
	o := &outcome{
		ringSeconds: r.Spec.Duration.Seconds() * float64(len(r.Rings)),
		events:      r.Events,
		streams:     len(r.Streams),
		rounds:      r.Engine.Rounds,
		skipped:     r.Engine.RoundsSkipped,
		fingerprint: r.Fingerprint(),
		compiled:    -1,
	}
	var latSum sim.Time
	var latN uint64
	var latMax sim.Time
	for _, s := range r.Streams {
		if !s.Decision.Admitted {
			continue
		}
		o.admitted++
		o.frames += s.Delivered
		o.sent += s.Sent
		o.lost += s.Lost
		o.glitches += s.Glitches
		o.activeMin += r.Spec.Duration.Seconds() / 60
		o.maxBufferBytes = max(o.maxBufferBytes, s.MaxBufferBytes)
		latSum += s.LatencySum
		latN += s.LatencyN
		latMax = max(latMax, s.LatencyMax)
		o.counts = append(o.counts, streamCount{s.Spec.Name, s.Sent, s.Delivered, s.Lost})
	}
	if latN > 0 {
		o.latencyMeanMs = ms(latSum) / float64(latN)
	}
	o.latencyMaxMs = ms(latMax)
	for _, rg := range r.Rings {
		o.ringUtil += rg.Utilization / float64(len(r.Rings))
		o.tokenWaitMaxMs = max(o.tokenWaitMaxMs, ms(rg.Counters.TokenWaitMax))
		o.queueWaitMaxMs = max(o.queueWaitMaxMs, ms(rg.Counters.QueueWaitMax))
		o.purgeLost += rg.Counters.PurgeLost
	}
	for _, l := range r.Links {
		o.forwarded += l.A.Forwarded + l.B.Forwarded
		o.routerDropped += l.A.Dropped + l.B.Dropped
		o.routerQueueMax = max(o.routerQueueMax, l.A.QueueMax, l.B.QueueMax)
		o.linkInFlight += l.InFlightAB + l.InFlightBA
	}
	return o
}

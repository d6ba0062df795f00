// Command perfbench is the repository's benchmark. It runs one named
// workload (ring_churn, mesh_dense or mesh_idle) as batch simulations
// generated from --seed, checks every run's outputs, and prints the
// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1) as
// one JSON object on its last line. README.md describes the workloads,
// the metrics and the checks.
//
//	go build -o perfbench . && ./perfbench --workload mesh_dense --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// hardStop bounds a whole invocation, set-up included: the timed loop
// stops early rather than run past it.
const hardStop = 150 * time.Second

// minPerSub is the fewest timed repetitions of each sub-simulation a run
// makes, however long they take.
const minPerSub = 2

func main() {
	wname := flag.String("workload", "", "workload name: ring_churn, mesh_dense or mesh_idle")
	seed := flag.Int64("seed", 1, "workload seed; the inputs are a pure function of it")
	seconds := flag.Float64("seconds", 25, "seconds of timed repetitions")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.Parse()

	w, ok := findWorkload(*wname)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wname, *seconds, *trace)
		os.Exit(2)
	}
	deadline := time.Now().Add(hardStop)
	workers := min(maxWorkers, runtime.GOMAXPROCS(0))

	rs, err := newRunState(w, *seed, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var defs []metricDef
	var vals map[string]float64
	if *trace == 0 {
		rs.loop(*seconds, deadline)
		defs, vals = endToEnd, rs.endToEnd()
	} else {
		vals, err = rs.traced(*seconds, deadline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		defs = perLayer
	}
	metrics, err := render(defs, vals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range rs.fails {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	fmt.Printf("workload %s seed %d: %d runs attempted, %d failed, %d workers\n",
		w.name, *seed, rs.attempted, rs.failed, workers)
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rs.failed == 0 && len(rs.fails) == 0, rs.attempted, rs.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runState is one invocation: the generated inputs, their reference
// outputs, and every timed repetition so far.
type runState struct {
	workers int
	inputs  []input
	refs    []reference
	outs    []*outcome // the reference run's outcome per input
	samples [][]sample // timed repetitions per input

	attempted, failed int
	fails             []string // check failures, and the ledger's closure failures
}

// newRunState generates the inputs and makes each one's reference run
// outside the timed region: serial (one worker) for a mesh, so every
// timed repetition is checked against the engine's own oracle. The
// reference runs are also the warm-up.
func newRunState(w workloadDef, seed int64, workers int) (*runState, error) {
	rs := &runState{workers: workers}
	for _, s := range subSeeds(seed, w.subs) {
		in := w.input(s)
		p, _, err := setup(in)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		raw, err := execute(p, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", w.name, err)
		}
		o := reduce(p, raw)
		ref := reference{fingerprint: o.fingerprint, rounds: o.rounds, skipped: o.skipped}
		rs.record(checkOutcome(o, &ref))
		ref.digest = o.digest()
		rs.inputs = append(rs.inputs, in)
		rs.refs = append(rs.refs, ref)
		rs.outs = append(rs.outs, o)
	}
	rs.samples = make([][]sample, len(rs.inputs))
	return rs, nil
}

func (rs *runState) record(fails []string) {
	rs.attempted++
	if len(fails) > 0 {
		rs.failed++
		if len(rs.fails) < 20 {
			rs.fails = append(rs.fails, fails...)
		}
	}
}

// loop makes timed repetitions, cycling through the inputs, until at
// least seconds have passed and every input has run minPerSub times, or
// the deadline comes. It stops only after a whole cycle, so every input
// has the same number of repetitions.
func (rs *runState) loop(seconds float64, deadline time.Time) {
	rs.repeat(minPerSub, seconds, deadline, func(k int) {
		p, raw, s, err := timedRun(rs.inputs[k], rs.workers)
		if err != nil {
			rs.record([]string{err.Error()})
			return
		}
		rs.record(checkOutcome(reduce(p, raw), &rs.refs[k]))
		rs.samples[k] = append(rs.samples[k], s)
	})
}

// repeat calls rep for input after input, in whole cycles, until at
// least seconds have passed and every input has had minPer calls, or the
// deadline comes.
func (rs *runState) repeat(minPer int, seconds float64, deadline time.Time, rep func(k int)) {
	n := len(rs.inputs)
	start := time.Now()
	for i := 0; ; i++ {
		if i%n == 0 && i >= minPer*n && time.Since(start).Seconds() >= seconds {
			return
		}
		if time.Now().After(deadline) {
			return
		}
		rep(i % n)
	}
}

// endToEnd reduces the repetitions. Host costs are per-input medians,
// summed over the inputs so every run weighs the same inputs equally;
// simulated outputs come from the reference runs (every repetition was
// checked to reproduce them).
func (rs *runState) endToEnd() map[string]float64 {
	var ringSec, wall, cpu, mallocs, bytes, setupSum float64
	var frames, sent uint64
	var latW, latMax, admitted float64
	for k, o := range rs.outs {
		ss := rs.samples[k]
		ringSec += o.ringSeconds
		wall += median(column(ss, func(s sample) float64 { return s.wall.Seconds() }))
		cpu += median(column(ss, func(s sample) float64 { return s.cpu.Seconds() }))
		mallocs += median(column(ss, func(s sample) float64 { return float64(s.mallocs) }))
		bytes += median(column(ss, func(s sample) float64 { return float64(s.bytes) }))
		setupSum += median(column(ss, func(s sample) float64 { return s.setup.Seconds() }))
		frames += o.frames
		sent += o.sent
		latW += o.latencyMeanMs * float64(o.frames)
		admitted += float64(o.admitted)
		latMax += o.latencyMaxMs
	}
	n := float64(len(rs.outs))
	return map[string]float64{
		"sim_s_per_wall_s":       ringSec / wall,
		"setup_s":                setupSum / n,
		"cpu_s_per_sim_s":        cpu / ringSec,
		"allocs_per_frame":       mallocs / float64(frames),
		"alloc_bytes_per_frame":  bytes / float64(frames),
		"peak_rss_mb":            peakRSSMB(),
		"sim_delivered_fraction": float64(frames) / float64(sent),
		"sim_latency_mean_ms":    latW / float64(frames),
		"sim_latency_max_ms":     latMax / n,
		"sim_admitted_streams":   admitted / n,
	}
}

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

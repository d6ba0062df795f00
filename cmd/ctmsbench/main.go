// Command ctmsbench regenerates every table and figure of the paper's
// evaluation: it runs the reproduction matrix (experiments E1–E20 of
// DESIGN.md) and prints paper-vs-measured comparisons plus ASCII versions
// of Figures 5-2, 5-3 and 5-4.
//
// The matrix fans out across a worker pool (every experiment is an
// independent deterministic simulation), and each invocation writes a
// machine-readable BENCH.json with per-experiment wall times, the
// simulated-seconds-per-second throughput and allocation counts, so
// successive revisions leave a perf trajectory.
//
// Usage:
//
//	ctmsbench                  # run everything at the default scale
//	ctmsbench -experiment E4   # one experiment
//	ctmsbench -full            # full 117-minute test-case durations
//	ctmsbench -minutes 10      # custom duration for the long scenarios
//	ctmsbench -markdown        # emit an EXPERIMENTS.md-style report
//	ctmsbench -parallel 8      # worker count (default GOMAXPROCS)
//	ctmsbench -benchout x.json # where to write the perf record ("" = off)
//	ctmsbench -scenario f.json # run custom Options scenario(s) from a file
//	ctmsbench -topo 4,8        # E20 mesh topology-scaling benchmark
//	ctmsbench -population      # E19 population sweep rows in BENCH.json
//	ctmsbench -lint            # time the four ctmsvet tiers, record rows
//	ctmsbench -cpuprofile c.pb # write a CPU profile of the whole run
//	ctmsbench -memprofile m.pb # write a heap profile at exit
//
// A scenario file holds one JSON-encoded ctms.Options object or an array
// of them (the format testdata/options.golden.json pins; durations accept
// "12ms"-style strings or nanosecond counts). Scenario mode runs each one
// and prints its report instead of the experiment matrix.
//
// The -topo benchmark scales the E20 metro mesh across grid sides (a
// side-K entry is a K×K grid with a diagonal trunk, K² rings). Each side
// runs twice — the serial oracle and a sharded run at min(rings,
// max(4, GOMAXPROCS)) workers — and records wall time, simsec/s, allocations per
// forwarded cross-ring frame (a whole-run mallocs delta over the mesh's
// forwarded-frame count, so the driver path is included — the pooled
// forwarding layer itself is pinned to zero by unit tests), the
// barrier-stall fraction and whether the sharded fingerprint stayed
// bit-identical to the serial one, in BENCH.json's topo_scaling rows.
//
// The -population benchmark runs the E19 offered-load sweep (Zipf-skewed
// demand, Poisson churn) and records one row per arrival rate — the
// admission-rate curve and the p99/p999 playout-latency tail — in
// BENCH.json's population rows. Under -compare the rows double as a
// determinism gate: at a matching rate and scale the arrival and
// admission counts must reproduce the baseline exactly.
//
// The -lint benchmark times ctmsvet's four tiers (syntactic, typed,
// interprocedural, dimensional) over this tree and records
// lint_wall_seconds rows.
// Under -compare a tier that takes more than double its baseline wall
// time fails the gate, so an analyzer that grows superlinear work is
// caught the same way a simulator perf regression is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	ctms "repro"
	"repro/internal/analyzers"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/topo"
)

// timedResult pairs one experiment's outcome with its host wall time and,
// in serial runs, its allocation and simulated-work deltas.
// The timing lives here rather than in core.RunMatrix so internal/core
// stays clock-free (the determinism analyzer enforces that); dispatch
// still fans out across the same lab pool with collection by index.
type timedResult struct {
	core.MatrixResult
	wall       time.Duration
	mallocs    uint64   // serial runs only; 0 under parallel dispatch
	allocBytes uint64   // "
	simTime    sim.Time // "
	events     uint64   // "
}

// runMatrixTimed is core.RunMatrix plus per-experiment wall bookkeeping.
// With parallelism 1 it also brackets each experiment with memory and
// simulated-work counters; under parallel dispatch those deltas would mix
// concurrent experiments, so they are left zero there.
func runMatrixTimed(exps []core.Experiment, s core.Scale, parallelism int) []timedResult {
	pool := lab.New(parallelism)
	serial := parallelism == 1
	return lab.Map(pool, len(exps), func(i int) timedResult {
		var before runtime.MemStats
		var simBefore sim.Time
		var firedBefore uint64
		if serial {
			runtime.ReadMemStats(&before)
			simBefore = sim.TotalSimulated()
			firedBefore = sim.TotalFired()
		}
		start := time.Now()
		cmp := exps[i].Run(s)
		tr := timedResult{
			MatrixResult: core.MatrixResult{Experiment: exps[i], Comparison: cmp},
			wall:         time.Since(start),
		}
		if serial {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			tr.mallocs = after.Mallocs - before.Mallocs
			tr.allocBytes = after.TotalAlloc - before.TotalAlloc
			tr.simTime = sim.TotalSimulated() - simBefore
			tr.events = sim.TotalFired() - firedBefore
		}
		return tr
	})
}

// benchRecord is the BENCH.json schema (documented in EXPERIMENTS.md).
type benchRecord struct {
	Timestamp    string            `json:"timestamp"`
	Parallelism  int               `json:"parallelism"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	ScaleMinutes float64           `json:"scale_minutes"`
	WallSeconds  float64           `json:"wall_seconds"`
	SimSeconds   float64           `json:"sim_seconds"`
	SimSecPerSec float64           `json:"sim_seconds_per_second"`
	Mallocs      uint64            `json:"mallocs"`
	AllocBytes   uint64            `json:"alloc_bytes"`
	Events       uint64            `json:"events"`
	Failures     int               `json:"failures"`
	Experiments  []benchExperiment `json:"experiments"`
	TopoScaling  []topoScaling     `json:"topo_scaling,omitempty"`
	Population   []populationRow   `json:"population,omitempty"`
	Lint         []lintRow         `json:"lint_wall_seconds,omitempty"`
}

// lintRow is one ctmsvet tier's cost on the real tree, recorded under
// -lint so analyzer slowdowns gate like perf regressions. The typed row
// includes the go/types module load it pays for; the inter and dim rows
// are the marginal cost of their passes on the already-loaded module,
// exactly the increments `make lint` pays over the typed tier.
type lintRow struct {
	Tier        string  `json:"tier"` // syntactic | typed | inter | dim
	WallSeconds float64 `json:"wall_seconds"`
	Findings    int     `json:"findings"`
}

// populationRow is one offered-load point of the E19 population sweep:
// the admission-rate curve and the latency tail at one arrival rate.
// Arrivals/Admitted/Rejected are exact deterministic counts — under
// -compare they must reproduce the baseline's when rate and scale match.
type populationRow struct {
	Rate          float64 `json:"rate"`
	Arrivals      int     `json:"arrivals"`
	Admitted      int     `json:"admitted"`
	Rejected      int     `json:"rejected"`
	Departed      int     `json:"departed"`
	AdmissionRate float64 `json:"admission_rate"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	WorstGPM      float64 `json:"worst_glitch_per_min"`
	LatencyN      uint64  `json:"latency_samples"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// topoScaling is one row of the E20 mesh topology-scaling benchmark: one
// K×K metro mesh at one worker count. AllocsPerFrame divides the run's
// whole-process mallocs delta by the frames the mesh forwarded across
// rings — an end-to-end cost-per-frame figure (the driver path included),
// not the pooled forwarding layer's own count, which unit tests pin at
// zero. StallFraction is the share of worker wall time spent blocked in
// the round barrier, the quantity the per-link windows and idle-round
// skips exist to shrink. Identical reports whether this row's fingerprint
// matched the serial (1-worker) run of the same mesh.
type topoScaling struct {
	Rings          int     `json:"rings"`
	Workers        int     `json:"workers"`
	WallSeconds    float64 `json:"wall_seconds"`
	SimSeconds     float64 `json:"sim_seconds"`
	SimSecPerSec   float64 `json:"sim_seconds_per_second"`
	Forwarded      uint64  `json:"forwarded_frames"`
	AllocsPerFrame float64 `json:"allocs_per_forwarded_frame"`
	StallFraction  float64 `json:"barrier_stall_fraction"`
	Identical      bool    `json:"identical"`
}

// The per-experiment allocation/simulated-work columns are measured only
// when -parallel 1: under parallel dispatch the process-wide counters
// interleave across experiments, so the columns stay zero there.
type benchExperiment struct {
	ID           string  `json:"id"`
	Source       string  `json:"source"`
	Title        string  `json:"title"`
	WallSeconds  float64 `json:"wall_seconds"`
	Metrics      int     `json:"metrics"`
	OK           bool    `json:"ok"`
	Mallocs      uint64  `json:"mallocs,omitempty"`
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	SimSeconds   float64 `json:"sim_seconds,omitempty"`
	Events       uint64  `json:"events,omitempty"`
	SimSecPerSec float64 `json:"sim_seconds_per_second,omitempty"`
}

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so the profile
// writers' defers always run.
func realMain() int {
	var (
		experiment = flag.String("experiment", "", "run a single experiment (E1..E20)")
		scenario   = flag.String("scenario", "", "run ctms.Options scenario(s) from a JSON file")
		full       = flag.Bool("full", false, "run the paper's full 117-minute durations")
		minutes    = flag.Float64("minutes", 4, "scenario duration in minutes (ignored with -full)")
		seed       = flag.Int64("seed", 0, "override the default seed")
		markdown   = flag.Bool("markdown", false, "emit a markdown report")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the matrix (1 = serial)")
		benchout   = flag.String("benchout", "BENCH.json", "write the machine-readable perf record here (empty disables)")
		compare    = flag.String("compare", "", "compare this run against a baseline BENCH.json; exit nonzero on regression")
		mallocTol  = flag.Float64("malloc-tolerance", 0.10, "with -compare: allowed fractional mallocs growth over the baseline")
		speedTol   = flag.Float64("speed-tolerance", 0.50, "with -compare: allowed fractional sim_seconds_per_second loss vs the baseline")
		topoSides  = flag.String("topo", "", "comma-separated mesh grid sides for the E20 topology-scaling benchmark (e.g. 4,8; empty disables)")
		population = flag.Bool("population", false, "run the E19 population offered-load sweep and record its rows")
		lint       = flag.Bool("lint", false, "time the four ctmsvet tiers on this tree and record lint_wall_seconds rows")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			}
		}()
	}

	if *scenario != "" {
		if err := runScenarios(*scenario, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
		return 0
	}

	scale := core.Scale{Seed: *seed}
	if *full {
		scale.Duration = 117 * sim.Minute
	} else if *minutes > 0 {
		scale.Duration = sim.Time(*minutes * float64(sim.Minute))
	}

	exps := core.Experiments()
	if *experiment != "" {
		e, ok := core.ExperimentByID(strings.ToUpper(*experiment))
		if !ok {
			fmt.Fprintf(os.Stderr, "ctmsbench: unknown experiment %q\n", *experiment)
			return 2
		}
		exps = []core.Experiment{e}
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	simBefore := sim.TotalSimulated()
	firedBefore := sim.TotalFired()
	start := time.Now()

	results := runMatrixTimed(exps, scale, *parallel)

	wall := time.Since(start)
	simRun := sim.TotalSimulated() - simBefore
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	failures := 0
	rec := benchRecord{
		Timestamp:    start.UTC().Format(time.RFC3339),
		Parallelism:  *parallel,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ScaleMinutes: float64(scale.Duration) / float64(sim.Minute),
		WallSeconds:  wall.Seconds(),
		SimSeconds:   simRun.Seconds(),
		SimSecPerSec: simRun.Seconds() / wall.Seconds(),
		Mallocs:      after.Mallocs - before.Mallocs,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		Events:       sim.TotalFired() - firedBefore,
	}
	for _, mr := range results {
		ok := mr.Comparison.AllOK()
		if !ok {
			failures++
		}
		be := benchExperiment{
			ID:          mr.Experiment.ID,
			Source:      mr.Experiment.Source,
			Title:       mr.Experiment.Title,
			WallSeconds: mr.wall.Seconds(),
			Metrics:     len(mr.Comparison.Metrics),
			OK:          ok,
			Mallocs:     mr.mallocs,
			AllocBytes:  mr.allocBytes,
			SimSeconds:  mr.simTime.Seconds(),
			Events:      mr.events,
		}
		if mr.wall > 0 {
			be.SimSecPerSec = mr.simTime.Seconds() / mr.wall.Seconds()
		}
		rec.Experiments = append(rec.Experiments, be)
		if *markdown {
			printMarkdown(mr.Experiment, mr.Comparison)
		} else {
			fmt.Printf("=== %s (%s) %s  [wall %v]\n",
				mr.Experiment.ID, mr.Experiment.Source, mr.Experiment.Title, mr.wall.Round(time.Millisecond))
			if mr.events > 0 {
				fmt.Printf("    allocs %d  events %d  sim %.0fs (%.0f simsec/s)\n",
					mr.mallocs, mr.events, be.SimSeconds, be.SimSecPerSec)
			}
			fmt.Print(mr.Comparison.Render())
			for name, fig := range mr.Comparison.Figures {
				fmt.Printf("\n%s\n%s\n", name, fig)
			}
			fmt.Println()
		}
	}
	rec.Failures = failures

	if !*markdown {
		fmt.Printf("--- matrix wall %v, %.0f simulated s (%.0f simsec/s), parallel %d\n",
			wall.Round(time.Millisecond), rec.SimSeconds, rec.SimSecPerSec, *parallel)
	}

	if *topoSides != "" {
		rows, err := runTopoScaling(*topoSides, scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
		rec.TopoScaling = rows
		for _, row := range rows {
			fmt.Printf("--- topo %3d rings × %2d worker(s): wall %.2fs  %.1f simsec/s  %.1f allocs/frame  stall %.1f%%  identical=%t\n",
				row.Rings, row.Workers, row.WallSeconds, row.SimSecPerSec,
				row.AllocsPerFrame, 100*row.StallFraction, row.Identical)
		}
	}

	if *population {
		rows, err := runPopulationBench(scale, *seed, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
		rec.Population = rows
		for _, row := range rows {
			fmt.Printf("--- population %4.0f/s: %d arrivals  %.3f admitted  p99=%.1fms p999=%.1fms  wall %.2fs\n",
				row.Rate, row.Arrivals, row.AdmissionRate, row.P99Ms, row.P999Ms, row.WallSeconds)
		}
	}

	if *lint {
		rows, err := runLintBench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
		rec.Lint = rows
		for _, row := range rows {
			fmt.Printf("--- lint %-9s %.3fs  %d finding(s)\n", row.Tier, row.WallSeconds, row.Findings)
		}
	}

	if *benchout != "" {
		if err := writeBench(*benchout, rec); err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
			return 1
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "ctmsbench: %d experiment(s) deviated from the paper's shape\n", failures)
		return 1
	}
	for _, row := range rec.TopoScaling {
		if !row.Identical {
			fmt.Fprintf(os.Stderr, "ctmsbench: %d-ring mesh at %d workers diverged from the serial fingerprint\n",
				row.Rings, row.Workers)
			return 1
		}
	}
	if *compare != "" {
		if err := compareBench(*compare, rec, *mallocTol, *speedTol); err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: regression vs %s:\n%v\n", *compare, err)
			return 3
		}
		fmt.Printf("--- no regression vs %s (mallocs within +%.0f%%, simsec/s within -%.0f%%)\n",
			*compare, 100**mallocTol, 100**speedTol)
	}
	return 0
}

// runTopoScaling runs the E20 metro mesh once serially and once sharded
// per requested grid side. The serial run is the bit-identity reference
// and the first row of each pair; the sharded run uses min(rings,
// GOMAXPROCS) workers with a wall clock injected so the barrier-stall
// column measures something. The simulated duration is the matrix scale
// capped at 2 s (E20's own full scale) so even the 16×16 mesh stays a
// minute-scale addendum.
func runTopoScaling(list string, scale core.Scale, seed int64) ([]topoScaling, error) {
	var sides []int
	for _, part := range strings.Split(list, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 2 || k > 16 {
			return nil, fmt.Errorf("-topo: bad grid side %q (want 2..16)", part)
		}
		sides = append(sides, k)
	}
	dur := 2 * sim.Second
	if scale.Duration > 0 && scale.Duration < dur {
		dur = scale.Duration
	}
	base := seed
	if base == 0 {
		base = 1991
	}
	topo.SetWallClock(func() int64 { return time.Now().UnixNano() })
	defer topo.SetWallClock(nil)

	var rows []topoScaling
	for _, side := range sides {
		spec := core.E20Topology(side, core.SweepSeed(base, 20), dur)
		rings := spec.Rings
		// The sharded row runs at least 4 workers even on a smaller host:
		// bit-identity must hold under time-sharing too (only the speed
		// columns need real cores), so a 1-core runner still exercises the
		// barrier protocol instead of silently degenerating to serial.
		workers := []int{1, min(rings, max(4, runtime.GOMAXPROCS(0)))}
		var refFingerprint string
		for _, w := range workers {
			n, err := topo.Build(spec)
			if err != nil {
				return nil, err
			}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			simBefore := sim.TotalSimulated()
			start := time.Now()
			res := n.Run(w)
			wallSec := time.Since(start).Seconds()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			simSec := (sim.TotalSimulated() - simBefore).Seconds()
			fp := res.Fingerprint()
			if w == 1 {
				refFingerprint = fp
			}
			var fwd uint64
			for _, l := range res.Links {
				fwd += l.A.Forwarded + l.B.Forwarded
			}
			row := topoScaling{
				Rings:         rings,
				Workers:       w,
				WallSeconds:   wallSec,
				SimSeconds:    simSec,
				Forwarded:     fwd,
				StallFraction: res.Engine.StallFraction(w),
				Identical:     fp == refFingerprint,
			}
			if wallSec > 0 {
				row.SimSecPerSec = simSec / wallSec
			}
			if fwd > 0 {
				row.AllocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(fwd)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// populationRates is the E19 offered-load sweep ctmsbench records:
// light load, the budget crossover, and deep overload.
var populationRates = []float64{1, 4, 16, 32}

// runPopulationBench runs the E19 population sweep once and converts its
// points to BENCH.json rows. The simulated duration is the matrix scale
// capped at 12 s (E19's own cap), and the per-row wall time is the whole
// sweep's wall split by simulated share — each point is one simulation,
// so finer attribution would need per-run clocks the determinism
// analyzer keeps out of internal/core.
func runPopulationBench(scale core.Scale, seed int64, parallel int) ([]populationRow, error) {
	dur := 12 * sim.Second
	if scale.Duration > 0 && scale.Duration < dur {
		dur = scale.Duration
	}
	base := seed
	if base == 0 {
		base = 1991
	}
	start := time.Now()
	points, err := core.PopulationSweep(core.SweepSeed(base, 19), dur, populationRates, parallel)
	if err != nil {
		return nil, err
	}
	wallEach := time.Since(start).Seconds() / float64(len(points))
	rows := make([]populationRow, len(points))
	for i, p := range points {
		rows[i] = populationRow{
			Rate:          p.OfferedPerSec,
			Arrivals:      p.Arrivals,
			Admitted:      p.Admitted,
			Rejected:      p.Rejected,
			Departed:      p.Departed,
			AdmissionRate: p.AdmissionRate(),
			P99Ms:         p.P99Us / 1000,
			P999Ms:        p.P999Us / 1000,
			WorstGPM:      p.WorstGPM,
			LatencyN:      p.LatencyN,
			WallSeconds:   wallEach,
		}
	}
	return rows, nil
}

// runLintBench times the four ctmsvet tiers over the repository the
// benchmark runs in, one row each. The syntactic tier is a pure-AST
// walk; the typed row carries the go/types load of the whole module;
// the inter and dim rows reuse that load, so each measures only what
// its own pass adds — the same split `make lint` pays via cmd/ctmsvet.
func runLintBench() ([]lintRow, error) {
	root, err := analyzers.FindModuleRoot(".")
	if err != nil {
		return nil, fmt.Errorf("-lint: %w", err)
	}

	start := time.Now()
	syn, err := analyzers.RunRepo(root)
	if err != nil {
		return nil, fmt.Errorf("-lint syntactic tier: %w", err)
	}
	rows := []lintRow{{Tier: "syntactic", WallSeconds: time.Since(start).Seconds(), Findings: len(syn)}}

	start = time.Now()
	mod, err := analyzers.LoadTypedModule(root)
	if err != nil {
		return nil, fmt.Errorf("-lint typed tier: %w", err)
	}
	typed, err := analyzers.RunModuleTyped(mod)
	if err != nil {
		return nil, fmt.Errorf("-lint typed tier: %w", err)
	}
	rows = append(rows, lintRow{Tier: "typed", WallSeconds: time.Since(start).Seconds(), Findings: len(typed)})

	start = time.Now()
	inter, err := analyzers.RunModuleInter(mod)
	if err != nil {
		return nil, fmt.Errorf("-lint inter tier: %w", err)
	}
	rows = append(rows, lintRow{Tier: "inter", WallSeconds: time.Since(start).Seconds(), Findings: len(inter)})

	start = time.Now()
	dim, err := analyzers.RunModuleDim(mod)
	if err != nil {
		return nil, fmt.Errorf("-lint dim tier: %w", err)
	}
	rows = append(rows, lintRow{Tier: "dim", WallSeconds: time.Since(start).Seconds(), Findings: len(dim)})
	return rows, nil
}

// compareBench checks the just-produced record against a baseline
// BENCH.json. It fails when mallocs grew past the malloc tolerance, when
// simulated-seconds-per-second fell past the speed tolerance, or when
// either record lacks a measured (nonzero) sim_seconds — a zero there
// means the gate would be comparing noise, the exact bug the counter
// rework fixed. Wall-clock speed is compared loosely by design: CI
// machines vary, but an order-of-magnitude slide or a silent return of
// per-event allocation should stop a merge.
func compareBench(path string, rec benchRecord, mallocTol, speedTol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	var problems []string
	if base.SimSeconds <= 0 {
		problems = append(problems, fmt.Sprintf("baseline sim_seconds is %v (not a measured record)", base.SimSeconds))
	}
	if rec.SimSeconds <= 0 {
		problems = append(problems, fmt.Sprintf("this run's sim_seconds is %v (simulated-time accounting broken)", rec.SimSeconds))
	}
	if limit := float64(base.Mallocs) * (1 + mallocTol); base.Mallocs > 0 && float64(rec.Mallocs) > limit {
		problems = append(problems, fmt.Sprintf("mallocs %d exceeds baseline %d by more than %.0f%% (limit %.0f)",
			rec.Mallocs, base.Mallocs, 100*mallocTol, limit))
	}
	if floor := base.SimSecPerSec * (1 - speedTol); base.SimSecPerSec > 0 && rec.SimSecPerSec < floor {
		problems = append(problems, fmt.Sprintf("sim_seconds_per_second %.1f fell below baseline %.1f by more than %.0f%% (floor %.1f)",
			rec.SimSecPerSec, base.SimSecPerSec, 100*speedTol, floor))
	}
	// Topo-scaling rows are compared only where a (rings, workers) pair
	// exists in both records, so baselines regenerated without -topo never
	// trip the gate. A matched row must be bit-identical to its serial
	// oracle and hold the matrix speed floor; the allocation column
	// additionally gates with the malloc tolerance — allocs per forwarded
	// frame is a per-unit cost, so host variance cannot inflate it the way
	// wall time inflates raw counters.
	for _, row := range rec.TopoScaling {
		for _, b := range base.TopoScaling {
			if b.Rings != row.Rings || b.Workers != row.Workers {
				continue
			}
			if !row.Identical {
				problems = append(problems, fmt.Sprintf(
					"%d-ring mesh at %d workers no longer bit-identical to the serial oracle", row.Rings, row.Workers))
			}
			if floor := b.SimSecPerSec * (1 - speedTol); b.SimSecPerSec > 0 && row.SimSecPerSec < floor {
				problems = append(problems, fmt.Sprintf(
					"%d-ring mesh at %d workers: sim_seconds_per_second %.1f fell below baseline %.1f (floor %.1f)",
					row.Rings, row.Workers, row.SimSecPerSec, b.SimSecPerSec, floor))
			}
			if limit := b.AllocsPerFrame * (1 + mallocTol); b.AllocsPerFrame > 0 && row.AllocsPerFrame > limit {
				problems = append(problems, fmt.Sprintf(
					"%d-ring mesh at %d workers: %.2f allocs per forwarded frame exceeds baseline %.2f by more than %.0f%% (limit %.2f)",
					row.Rings, row.Workers, row.AllocsPerFrame, b.AllocsPerFrame, 100*mallocTol, limit))
			}
		}
	}
	// Lint rows gate analyzer cost: where a tier exists in both records
	// its wall time may at most double over the baseline (plus half a
	// second of absolute slack, so a 30 ms syntactic pass on a noisy
	// runner can't trip the gate). A doubled tier means an analyzer grew
	// superlinear work — the regression class the row exists to catch —
	// while honest host-to-host variance stays well inside 2x. Findings
	// are informational here; `make lint` is the correctness gate.
	for _, row := range rec.Lint {
		for _, b := range base.Lint {
			if b.Tier != row.Tier {
				continue
			}
			if limit := 2*b.WallSeconds + 0.5; row.WallSeconds > limit {
				problems = append(problems, fmt.Sprintf(
					"lint %s tier took %.2fs, more than double the baseline %.2fs (limit %.2fs)",
					row.Tier, row.WallSeconds, b.WallSeconds, limit))
			}
		}
	}
	// Population rows gate determinism: an arrival schedule is a pure
	// function of (seed, spec, duration), so at a matching rate — and
	// only when both records ran the same scale, since duration changes
	// the schedule — the exact counts must reproduce. A baseline without
	// population rows never trips the gate.
	if base.ScaleMinutes == rec.ScaleMinutes {
		for _, row := range rec.Population {
			for _, b := range base.Population {
				if b.Rate != row.Rate {
					continue
				}
				if row.Arrivals != b.Arrivals || row.Admitted != b.Admitted || row.Rejected != b.Rejected {
					problems = append(problems, fmt.Sprintf(
						"population %g/s: counts %d/%d/%d (arrivals/admitted/rejected) no longer reproduce baseline %d/%d/%d",
						row.Rate, row.Arrivals, row.Admitted, row.Rejected,
						b.Arrivals, b.Admitted, b.Rejected))
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// runScenarios loads a JSON scenario file (one ctms.Options or an array)
// and runs each scenario, printing its report. A nonzero seed overrides
// every scenario's own.
func runScenarios(path string, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	scenarios, err := ctms.LoadScenarios(data)
	if err != nil {
		return err
	}
	for i, opts := range scenarios {
		if seed != 0 {
			opts.Seed = seed
		}
		start := time.Now()
		res, err := ctms.Run(opts)
		if err != nil {
			return fmt.Errorf("scenario %d (%s): %w", i, opts.Name, err)
		}
		fmt.Printf("=== scenario %s  [wall %v]\n%s\n", res.Name, time.Since(start).Round(time.Millisecond), res.Report)
	}
	return nil
}

func writeBench(path string, rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMarkdown(e core.Experiment, cmp *core.Comparison) {
	fmt.Printf("### %s — %s (%s)\n\n", e.ID, e.Title, e.Source)
	fmt.Println("| metric | paper | measured | match |")
	fmt.Println("|---|---|---|---|")
	for _, m := range cmp.Metrics {
		mark := "yes"
		if !m.OK {
			mark = "NO"
		}
		fmt.Printf("| %s | %s | %s | %s |\n", m.Name, m.Paper, m.Measured, mark)
	}
	for _, n := range cmp.Notes {
		fmt.Printf("\n_%s_\n", n)
	}
	for name, fig := range cmp.Figures {
		fmt.Printf("\n%s\n\n```\n%s```\n", name, fig)
	}
	fmt.Println()
}

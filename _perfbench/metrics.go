package main

import (
	"fmt"
	"math"
)

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. sim_ metrics are in
// simulated time and deterministic for a seed; the others are host
// measurements.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "s/s", "higher"},
	{"setup_s", "s", "lower"},
	{"cpu_s_per_sim_s", "s/s", "lower"},
	{"allocs_per_frame", "allocs/frame", "lower"},
	{"alloc_bytes_per_frame", "B/frame", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_delivered_fraction", "fraction", "higher"},
	{"sim_latency_mean_ms", "ms", "lower"},
	{"sim_latency_max_ms", "ms", "lower"},
	{"sim_admitted_streams", "count", "higher"},
}

// ledgerLayers are the repo's packages on the CTMSP path, in the order a
// frame meets them; each gets a CPU share and an allocation rate.
var ledgerLayers = []string{
	"vca", "ctmsp", "kernel", "rtpc", "tradapter", "ring", "router",
	"topo", "session", "workload", "playout", "stats", "sim",
}

// Buckets beside the layers: runtime holds CPU samples and allocations
// with no repo frame at all (GC, scheduler); other holds those whose
// innermost repo frame is outside the named layers (core, the
// benchmark's own loop).
const (
	bucketRuntime = "runtime"
	bucketOther   = "other"
)

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range ledgerLayers {
		out = append(out,
			metricDef{l + ".cpu_share", "fraction", "lower"},
			metricDef{l + ".allocs_per_frame", "allocs/frame", "lower"})
	}
	return append(out,
		metricDef{"runtime.gc_share", "fraction", "lower"},
		metricDef{"runtime.allocs_per_frame", "allocs/frame", "lower"},
		metricDef{"runtime.tiny_allocs_per_frame", "allocs/frame", "lower"},
		metricDef{"runtime.gc_cycles_per_sim_s", "1/s", "lower"},
		metricDef{"other.cpu_share", "fraction", "lower"},
		metricDef{"other.allocs_per_frame", "allocs/frame", "lower"},
		metricDef{"sim.events_per_frame", "events/frame", "lower"},
		metricDef{"sim.event_ns", "ns", "lower"},
		metricDef{"sim.event_allocs", "allocs/event", "lower"},
		metricDef{"kernel.chain_ns", "ns", "lower"},
		metricDef{"ctmsp.header_ns", "ns", "lower"},
		metricDef{"ring.frame_codec_ns", "ns", "lower"},
		metricDef{"ring.utilization", "fraction", "higher"},
		metricDef{"ring.token_wait_max_ms", "ms", "lower"},
		metricDef{"ring.queue_wait_max_ms", "ms", "lower"},
		metricDef{"ring.purge_lost", "count", "lower"},
		metricDef{"router.forwards_per_frame", "forwards/frame", "lower"},
		metricDef{"router.dropped", "count", "lower"},
		metricDef{"router.queue_max", "count", "lower"},
		metricDef{"topo.rounds", "count", "lower"},
		metricDef{"topo.skipped_share", "fraction", "higher"},
		metricDef{"topo.events_per_round", "events/round", "higher"},
		metricDef{"topo.barrier_stall_fraction", "fraction", "lower"},
		metricDef{"topo.build_s", "s", "lower"},
		metricDef{"session.admit_share", "fraction", "higher"},
		metricDef{"session.shed", "count", "lower"},
		metricDef{"session.departed", "count", "higher"},
		metricDef{"workload.compile_ms", "ms", "lower"},
		metricDef{"playout.glitches", "count", "lower"},
		metricDef{"playout.glitches_per_min", "1/min", "lower"},
		metricDef{"playout.max_buffer_kb", "KiB", "lower"},
		metricDef{"playout.latency_p99_ms", "ms", "lower"},
		metricDef{"playout.deliver_ns", "ns", "lower"},
		metricDef{"stats.hist_add_ns", "ns", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
		metricDef{"ledger.cpu_samples", "count", "higher"},
		metricDef{"ledger.alloc_closure", "ratio", "higher"},
		metricDef{"ledger.unaccounted_share", "fraction", "lower"},
	)
}()

// metricValue is one reported value with its unit, as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs computed values with the declared list, failing when a
// declared metric is missing, an undeclared one is present, or a value is
// not a finite number.
func render(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/topo"
)

// cpuTime is the process's user plus system CPU time so far, across all
// threads (GC workers and barrier spinning included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sample is one timed repetition: host costs of set-up and run phases.
type sample struct {
	setup, wall, cpu time.Duration
	mallocs, bytes   uint64
	gcCycles         uint32
	// stall is a mesh run's barrier stall fraction; 0 unless a wall
	// clock was injected with topo.SetWallClock (traced runs only).
	stall float64
}

// timedRun sets up and runs one input. The wall and CPU columns time the
// run phase only; set-up is timed on its own. The allocation columns
// cover the program's whole work for one simulation: topo.Build plus Run
// for a mesh, session.Run (which does its own set-up) for a session.
func timedRun(in input, workers int) (prepared, any, sample, error) {
	var s sample
	var m0, m1 runtime.MemStats
	if in.mesh != nil {
		runtime.ReadMemStats(&m0)
	}
	p, setupDur, err := setup(in)
	if err != nil {
		return p, nil, s, err
	}
	if in.mesh == nil {
		runtime.ReadMemStats(&m0)
	}
	c0 := cpuTime()
	t0 := time.Now()
	raw, err := execute(p, workers)
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	s.setup = setupDur
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	if r, ok := raw.(*topo.Results); ok {
		s.stall = r.Engine.StallFraction(r.Workers)
	}
	return p, raw, s, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

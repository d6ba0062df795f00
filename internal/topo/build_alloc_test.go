package topo_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// buildBytesPerRing is the Build allocation budget per ring on the side-4
// E20 mesh. Build measured 155,878 B per ring (go1.24, amd64); the budget
// adds 2.6 % headroom. The headroom is deliberately smaller than any
// regression it guards: a preallocated scheduler free list adds ≈9.5 KB
// per ring, a preallocated CPU task free list ≈28 KB, and seeding every
// RNG in NewRNG ≈156 KB.
const buildBytesPerRing = 160_000

// TestBuildBytesPerRing bounds what network assembly allocates. Build
// seeds no RNG that is only forked and preallocates no free list, so a
// reverted lazy source (a 607-word table per RNG) or a preallocated
// scheduler or CPU free list shows up here as bytes per ring.
func TestBuildBytesPerRing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds ≈12 % to Build's heap bytes; the budget is for a plain build")
	}
	spec := core.E20Topology(4, 1991, 800*sim.Millisecond)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		n, err := topo.Build(spec)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(n)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	build() // warm package-level state (lazily built tables, type caches)
	per := float64(build()) / float64(spec.Rings)
	t.Logf("topo.Build allocated %.0f bytes per ring over %d rings", per, spec.Rings)
	if per > buildBytesPerRing {
		t.Fatalf("topo.Build allocated %.0f bytes per ring; budget %d", per, buildBytesPerRing)
	}
}

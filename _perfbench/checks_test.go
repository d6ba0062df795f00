package main

import (
	"strings"
	"testing"
)

// realReference makes one mesh_idle reference run, as newRunState does.
func realReference(t *testing.T) (*outcome, reference) {
	t.Helper()
	p, _, err := setup(meshIdleInput(subSeeds(1, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := execute(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := reduce(p, raw)
	return o, reference{fingerprint: o.fingerprint, rounds: o.rounds, skipped: o.skipped, digest: o.digest()}
}

func wantFailure(t *testing.T, fails []string, substr string) {
	t.Helper()
	for _, f := range fails {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Errorf("no failure mentions %q; got %q", substr, fails)
}

func TestChecksPassOnRealParallelRun(t *testing.T) {
	_, ref := realReference(t)
	p, _, err := setup(meshIdleInput(subSeeds(1, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := execute(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fails := checkOutcome(reduce(p, raw), &ref); len(fails) > 0 {
		t.Fatalf("2-worker run of the reference spec failed its checks: %q", fails)
	}
}

func TestChecksFireOnPlantedMismatch(t *testing.T) {
	o, ref := realReference(t)
	if fails := checkOutcome(o, &ref); len(fails) > 0 {
		t.Fatalf("reference fails its own checks: %q", fails)
	}

	planted := *o
	planted.fingerprint = strings.Replace(o.fingerprint, "sent=", "sent=1", 1)
	wantFailure(t, checkOutcome(&planted, &ref), "fingerprint")

	planted = *o
	planted.skipped++
	wantFailure(t, checkOutcome(&planted, &ref), "rounds/skipped")

	planted = *o
	planted.latencyMaxMs += 0.001
	wantFailure(t, checkOutcome(&planted, &ref), "differ between repetitions")

	planted = *o
	planted.counts = append([]streamCount(nil), o.counts...)
	planted.counts[0].delivered = planted.counts[0].sent + 1
	wantFailure(t, checkOutcome(&planted, &ref), "> sent")

	planted = *o
	planted.linkInFlight = int(o.sent) // more frames on links than left unaccounted
	wantFailure(t, checkOutcome(&planted, &ref), "in flight")

	planted = *o
	planted.compiled = o.streams + 1
	wantFailure(t, checkOutcome(&planted, &ref), "compiles to")
}

func TestConservationArithmetic(t *testing.T) {
	counts := []streamCount{{"a", 10, 7, 1}, {"b", 5, 5, 0}}
	if fails := checkConservation(counts, 2); len(fails) != 0 {
		t.Fatalf("2 unaccounted frames, 2 on links: %q", fails)
	}
	wantFailure(t, checkConservation(counts, 3), "links hold 3")
	wantFailure(t, checkConservation([]streamCount{{"c", 4, 4, 1}}, 0), "stream c")
}

func TestSubSeedsAreStableAndDistinct(t *testing.T) {
	a, b := subSeeds(7, 4), subSeeds(7, 4)
	seen := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subSeeds not a pure function of the seed: %v vs %v", a, b)
		}
		if a[i] < 0 || seen[a[i]] {
			t.Fatalf("subSeeds(7) = %v: negative or repeated", a)
		}
		seen[a[i]] = true
	}
	if subSeeds(8, 1)[0] == a[0] {
		t.Fatal("neighbouring seeds give the same input")
	}
}

package topo

import (
	"strings"
	"testing"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/workload"
)

// twoRingSpec is the smallest interesting internetwork: one bridge, one
// cross-ring stream.
func twoRingSpec() Spec {
	return Spec{
		Name:     "two-ring",
		Seed:     42,
		Duration: 2 * sim.Second,
		Rings:    2,
		Links:    []LinkSpec{{A: 0, B: 1}},
		Streams: []StreamSpec{
			{StreamSpec: session.StreamSpec{Name: "voice", PacketBytes: 200,
				Interval: 12 * sim.Millisecond, Class: session.ClassInteractive},
				SrcRing: 0, DstRing: 1},
		},
	}
}

func TestTwoRingStreamDelivers(t *testing.T) {
	n, err := Build(twoRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(1)
	s := res.Streams[0]
	if !s.Decision.Admitted {
		t.Fatalf("stream rejected: %s", s.Decision.Reason)
	}
	if s.Sent < 160 {
		t.Fatalf("sent %d packets in 2s at 12ms intervals; want ≥160", s.Sent)
	}
	if got := s.DeliveredFraction(); got < 0.99 {
		t.Fatalf("delivered fraction %.4f; want ≥0.99 (sent=%d delivered=%d lost=%d)",
			got, s.Sent, s.Delivered, s.Lost)
	}
	// Every packet crossed the bridge: the link latency is a floor on the
	// observed delivery delay.
	if s.LatencyN == 0 || s.LatencyMean() < DefaultLinkLatency {
		t.Fatalf("mean latency %v over %d packets; want ≥ link latency %v",
			s.LatencyMean(), s.LatencyN, sim.Time(DefaultLinkLatency))
	}
	l := res.Links[0]
	if l.A.Forwarded == 0 || l.B.Injected == 0 {
		t.Fatalf("bridge never forwarded: %+v / %+v", l.A, l.B)
	}
	if l.A.Forwarded != l.SentAB {
		t.Fatalf("forwarded %d but inbox saw %d", l.A.Forwarded, l.SentAB)
	}
}

func TestMultiHopPathAndAdmission(t *testing.T) {
	spec := Spec{
		Name:     "line-3",
		Seed:     7,
		Duration: sim.Second,
		Rings:    3,
		Links:    []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}},
		Streams: []StreamSpec{
			{StreamSpec: session.StreamSpec{Name: "far", PacketBytes: 200,
				Interval: 12 * sim.Millisecond, Class: session.ClassStandard},
				SrcRing: 0, DstRing: 2},
		},
	}
	n, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(1)
	s := res.Streams[0]
	wantPath := []int{0, 1, 2}
	if len(s.Path) != 3 || s.Path[0] != 0 || s.Path[1] != 1 || s.Path[2] != 2 {
		t.Fatalf("path %v; want %v", s.Path, wantPath)
	}
	if !s.Decision.Admitted {
		t.Fatalf("rejected: %s", s.Decision.Reason)
	}
	// A couple of packets may still be in flight across the two hops when
	// the run ends; everything else must arrive.
	if s.Delivered+3 < s.Sent {
		t.Fatalf("delivered %d of %d over two hops (lost=%d)", s.Delivered, s.Sent, s.Lost)
	}
	// The reservation landed on every hop.
	for i, rg := range res.Rings {
		if rg.ReservedBits != s.Decision.ReservedBits {
			t.Fatalf("ring %d reserved %d bits; want %d", i, rg.ReservedBits, s.Decision.ReservedBits)
		}
		if rg.Admitted != 1 {
			t.Fatalf("ring %d admitted=%d; want 1", i, rg.Admitted)
		}
	}
}

func TestAdmissionNamesRefusingHop(t *testing.T) {
	// Ring 1 is pre-loaded with background traffic so the transit hop,
	// not the source, refuses.
	spec := Spec{
		Name:     "refuse-transit",
		Seed:     3,
		Duration: sim.Second,
		Rings:    3,
		Links:    []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}},
		// One fat local stream on ring 1 eats its budget first.
		Streams: []StreamSpec{
			{StreamSpec: session.StreamSpec{Name: "hog", PacketBytes: 4000,
				Interval: 12 * sim.Millisecond, Class: session.ClassInteractive},
				SrcRing: 1, DstRing: 1},
			{StreamSpec: session.StreamSpec{Name: "through", PacketBytes: 4000,
				Interval: 12 * sim.Millisecond, Class: session.ClassStandard},
				SrcRing: 0, DstRing: 2},
		},
	}
	n, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(1)
	hog, through := res.Streams[0], res.Streams[1]
	if !hog.Decision.Admitted {
		t.Fatalf("hog rejected: %s", hog.Decision.Reason)
	}
	if through.Decision.Admitted {
		t.Fatalf("through admitted; the transit hop should have refused")
	}
	if !strings.HasPrefix(through.Decision.Reason, "ring 1:") {
		t.Fatalf("refusal reason %q does not name the transit hop", through.Decision.Reason)
	}
	// The rollback released ring 0's partial grant.
	if res.Rings[0].ReservedBits != 0 {
		t.Fatalf("ring 0 still holds %d reserved bits after rollback", res.Rings[0].ReservedBits)
	}
	// The refusal is charged to the refusing hop alone.
	for i, want := range []int{0, 1, 0} {
		if res.Rings[i].Rejected != want {
			t.Fatalf("ring %d charged %d rejections; want %d", i, res.Rings[i].Rejected, want)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := twoRingSpec()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero duration", func(s *Spec) { s.Duration = 0 }},
		{"no rings", func(s *Spec) { s.Rings = 0 }},
		{"self link", func(s *Spec) { s.Links = []LinkSpec{{A: 0, B: 0}} }},
		{"link out of range", func(s *Spec) { s.Links = []LinkSpec{{A: 0, B: 5}} }},
		{"latency below switch cost", func(s *Spec) { s.Links[0].Latency = sim.Microsecond }},
		{"stream ring out of range", func(s *Spec) { s.Streams[0].DstRing = 9 }},
		{"unreachable stream", func(s *Spec) { s.Links = nil }},
		{"burst unreachable", func(s *Spec) {
			s.Links = []LinkSpec{{A: 0, B: 1}}
			s.Streams = nil
			s.Rings = 3
			s.Bursts = []BurstSpec{{SrcRing: 0, DstRing: 2, At: sim.Millisecond, Count: 1, PacketBytes: 100}}
		}},
		{"insertion out of range", func(s *Spec) { s.Insertions = []InsertionSpec{{Ring: 7}} }},
	}
	for _, c := range cases {
		spec := base
		c.mut(&spec)
		if _, err := Build(spec); err == nil {
			t.Errorf("%s: Build accepted a bad spec", c.name)
		}
	}
}

func TestRunIsSingleShot(t *testing.T) {
	n, err := Build(twoRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	n.Run(1)
}

// popSpec is a four-ring line carrying a population census on top of a
// couple of hand-written streams.
func popSpec() Spec {
	return Spec{
		Name:     "pop-census",
		Seed:     1991,
		Duration: 2 * sim.Second,
		Rings:    4,
		Links:    []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
		Streams: []StreamSpec{
			{StreamSpec: session.StreamSpec{Name: "voice", PacketBytes: 200,
				Interval: 12 * sim.Millisecond, Class: session.ClassInteractive},
				SrcRing: 0, DstRing: 3},
		},
		Population: &workload.PopulationSpec{
			ArrivalsPerSec: 20,
			ZipfSkew:       1.0,
			Titles:         12,
			ChurnHalfLife:  sim.Second,
		},
	}
}

func TestPopulationCensusExpansion(t *testing.T) {
	n, err := Build(popSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(1)
	// Hand-written stream plus a census: rate 20/s with a 1 s half-life
	// keeps ~29 streams alive at any instant; demand a healthy floor.
	if len(res.Streams) < 10 {
		t.Fatalf("census expanded to only %d streams", len(res.Streams)-1)
	}
	admitted := 0
	for _, s := range res.Streams {
		if s.Decision.Admitted {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("no census stream admitted")
	}
}

func TestPopulationCensusShardOracle(t *testing.T) {
	spec := popSpec()
	run := func(workers int) string {
		n, err := Build(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return n.Run(workers).Fingerprint()
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != want {
			t.Fatalf("population run diverged at %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

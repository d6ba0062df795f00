package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOfInnermostRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"runtime callee charged to its caller",
			[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/rtpc.(*CPU).Submit",
				"repro/internal/tradapter.(*Driver).pumpTx", "repro/internal/sim.(*Scheduler).step", "main.main"},
			"rtpc"},
		{"closure of a layer",
			[]string{"repro/internal/topo.(*Network).Run.func1", "runtime.goexit"}, "topo"},
		{"generic instantiation",
			[]string{"repro/internal/sim.pick[...]", "repro/internal/ring.(*Ring).next"}, "sim"},
		{"no repo frame", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, bucketRuntime},
		{"empty stack", nil, bucketRuntime},
		{"repo package outside the layers",
			[]string{"runtime.growslice", "repro/internal/core.E20Topology", "main.meshDenseInput"}, bucketOther},
		{"benchmark's own frame", []string{"fmt.Sprintf", "main.(*outcome).digest"}, bucketOther},
		{"package name must match whole",
			[]string{"repro/internal/ringx.Foo", "repro/internal/ring.Bar"}, bucketOther},
		{"repository root package", []string{"repro.Run", "repro/internal/ring.New"}, bucketOther},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf(%q) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
	}
}

// protobuf encoding helpers for a synthetic profile.proto.
func pbKey(num, wire int) []byte { return binary.AppendUvarint(nil, uint64(num<<3|wire)) }

func pbVarint(num int, v uint64) []byte {
	return append(pbKey(num, 0), binary.AppendUvarint(nil, v)...)
}

func pbBytes(num int, b []byte) []byte {
	out := append(pbKey(num, 2), binary.AppendUvarint(nil, uint64(len(b)))...)
	return append(out, b...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return pbBytes(num, body)
}

func cat(bs ...[]byte) []byte { return bytes.Join(bs, nil) }

// syntheticProfile has three functions and three samples with a known
// attribution: 30 ns in rtpc (via an inlined runtime callee), 50 ns in
// ring, 20 ns with no repo frame.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove", "repro/internal/rtpc.CopySegs", "repro/internal/ring.(*Ring).start", "runtime.gcDrain"}
	var msg []byte
	for _, s := range strs {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		msg = append(msg, pbBytes(5, cat(pbVarint(1, id), pbVarint(2, name)))...)
	}
	// Location 10 inlines memmove into CopySegs (innermost line first).
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 10),
		pbBytes(4, pbVarint(1, 1)), pbBytes(4, pbVarint(1, 2))))...)
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 11), pbBytes(4, pbVarint(1, 3))))...)
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 12), pbBytes(4, pbVarint(1, 4))))...)
	// Samples: packed location ids and values, and one unpacked.
	msg = append(msg, pbBytes(2, cat(pbPacked(1, 10, 11), pbPacked(2, 3, 30)))...)
	msg = append(msg, pbBytes(2, cat(pbVarint(1, 11), pbVarint(2, 5), pbVarint(2, 50)))...)
	msg = append(msg, pbBytes(2, cat(pbPacked(1, 12), pbPacked(2, 2, 20)))...)

	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUProfileAttributionKnownAnswer(t *testing.T) {
	p, err := parseCPUProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(p.samples))
	}
	wantStack := []string{"runtime.memmove", "repro/internal/rtpc.CopySegs", "repro/internal/ring.(*Ring).start"}
	if got := p.samples[0].stack; len(got) != 3 || got[0] != wantStack[0] || got[1] != wantStack[1] || got[2] != wantStack[2] {
		t.Fatalf("first stack %q, want %q", got, wantStack)
	}
	shares := cpuShares(p)
	want := map[string]float64{"rtpc": 0.3, "ring": 0.5, bucketRuntime: 0.2}
	var sum float64
	for b, v := range shares {
		sum += v
		if math.Abs(v-want[b]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", b, v, want[b])
		}
	}
	if math.Abs(sum-1) > cpuClosureTol {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseCPUProfileRejectsDanglingIDs(t *testing.T) {
	msg := cat(pbBytes(6, nil), pbBytes(2, cat(pbPacked(1, 99), pbPacked(2, 1, 10))))
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write(msg)
	w.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Fatal("a sample naming an unknown location parsed without error")
	}
}

package sim

import (
	"strings"
	"testing"
)

func TestTraceBasics(t *testing.T) {
	tr := NewTrace(0)
	tr.AddEvent(Microsecond, testKindTick, 1, 2)
	tr.AddEvent(2*Microsecond, testKindTick, 7, 9)
	if tr.EventLen() != 2 {
		t.Fatalf("want 2 entries, got %d", tr.EventLen())
	}
	if e := tr.Events()[1]; e.T != 2*Microsecond || e.A != 7 || e.B != 9 {
		t.Fatalf("second entry wrong: %+v", e)
	}
	if !strings.Contains(tr.String(), "test.tick a=7 b=9") {
		t.Fatalf("String should include entries:\n%s", tr.String())
	}
}

func TestTraceEviction(t *testing.T) {
	tr := NewTrace(10)
	for i := 0; i < 25; i++ {
		tr.AddEvent(Time(i), testKindTick, int64(i), 0)
	}
	if tr.EventLen() != 10 {
		t.Fatalf("trace should hold its bound of 10, got %d", tr.EventLen())
	}
	if tr.EventsDropped() != 15 {
		t.Fatalf("want 15 evictions reported, got %d", tr.EventsDropped())
	}
	// The newest entry must always survive, and the wrapped ring still
	// renders oldest-first.
	ev := tr.Events()
	if last := ev[len(ev)-1]; last.A != 24 {
		t.Fatalf("newest entry lost: %+v", last)
	}
	lines := strings.Split(strings.TrimSpace(tr.String()), "\n")
	if len(lines) != 10 || !strings.HasSuffix(lines[0], "a=15 b=0") || !strings.HasSuffix(lines[9], "a=24 b=0") {
		t.Fatalf("rendered ring out of order:\n%s", tr.String())
	}
}

func TestTraceMatching(t *testing.T) {
	tr := NewTrace(0)
	tr.AddEvent(1, testKindTick, 1, 0)
	tr.AddEvent(2, testKindTock, 2, 0)
	tr.AddEvent(3, testKindTick, 3, 0)
	got := tr.EventsOfKind(testKindTick)
	if len(got) != 2 || got[0].A != 1 || got[1].A != 3 {
		t.Fatalf("want the 2 tick entries in order, got %+v", got)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	// All recording and reading methods must be no-ops on nil so call
	// sites can instrument unconditionally.
	tr.AddEvent(3, 1, 4, 5)
	if tr.EventLen() != 0 || tr.EventsDropped() != 0 {
		t.Fatal("nil trace should report empty")
	}
	if tr.Events() != nil || tr.EventsOfKind(1) != nil || tr.String() != "" {
		t.Fatal("nil trace reads should be empty")
	}
}

// Kinds reserved for tests; real kinds grow from 1.
const (
	testKindTick EventKind = 255
	testKindTock EventKind = 254
)

func init() {
	RegisterEventKind(testKindTick, "test.tick")
	RegisterEventKind(testKindTock, "test.tock")
}

func TestTraceStructuredRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.AddEvent(Time(i)*Microsecond, testKindTick, int64(i), int64(i*10))
	}
	if tr.EventLen() != 4 {
		t.Fatalf("ring should hold 4 entries, got %d", tr.EventLen())
	}
	if tr.EventsDropped() != 2 {
		t.Fatalf("want 2 overwritten, got %d", tr.EventsDropped())
	}
	ev := tr.Events()
	for i, e := range ev {
		want := int64(i + 2) // oldest two overwritten
		if e.A != want || e.B != want*10 || e.Kind != testKindTick {
			t.Fatalf("entry %d wrong: %+v", i, e)
		}
	}
	if got := tr.EventsOfKind(testKindTick); len(got) != 4 {
		t.Fatalf("EventsOfKind: want 4, got %d", len(got))
	}
	if got := tr.EventsOfKind(200); got != nil {
		t.Fatalf("EventsOfKind for absent kind: want nil, got %v", got)
	}
}

func TestTraceLazyFormatting(t *testing.T) {
	tr := NewTrace(8)
	tr.AddEvent(Millisecond, testKindTick, 7, 9)
	if s := tr.String(); !strings.Contains(s, "test.tick a=7 b=9") {
		t.Fatalf("entry should render its registered kind name:\n%s", s)
	}
	if got := EventKind(200).String(); got != "kind(200)" {
		t.Fatalf("unregistered kind placeholder wrong: %q", got)
	}
}

func TestTraceAddEventDoesNotAllocate(t *testing.T) {
	tr := NewTrace(1024)
	tr.AddEvent(0, testKindTick, 0, 0) // warm: ring backing array allocated here
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddEvent(Microsecond, testKindTick, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("AddEvent must be allocation-free after warmup, got %v allocs/op", allocs)
	}
}

func TestSchedulerTraceGetter(t *testing.T) {
	s := NewScheduler()
	if s.Trace() != nil {
		t.Fatal("fresh scheduler should have no trace")
	}
	// The getter + nil-safe methods make unconditional instrumentation
	// legal even with no trace attached.
	s.Trace().AddEvent(1, testKindTick, 0, 0)
	tr := NewTrace(0)
	s.SetTrace(tr)
	if s.Trace() != tr {
		t.Fatal("Trace should return the attached trace")
	}
	// Dispatch itself records nothing: entries come only from model
	// components' AddEvent calls.
	s.After(Millisecond, "hello", func() {})
	s.Run()
	if tr.EventLen() != 0 {
		t.Fatalf("dispatch wrote %d trace entries, want 0", tr.EventLen())
	}
}

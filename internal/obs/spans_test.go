package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// buildTrace makes a tracer with two tracks in the given creation order;
// structure is identical either way, exercising the writer's sorting.
func buildTrace(order []string) *Tracer {
	tr := NewTracer()
	for _, name := range order {
		track := tr.NewTrack("cellA", name)
		track.Begin("cell", "sweep")
		track.Begin("run", "engine")
		track.End()
		track.Begin("run", "engine")
		track.End()
		track.End()
	}
	return tr
}

// untimed drops the wall-clock fields, leaving a trace's structure.
func untimed(events []TraceEvent) []TraceEvent {
	out := append([]TraceEvent(nil), events...)
	for i := range out {
		out[i].TS, out[i].Dur = 0, 0
	}
	return out
}

func TestTracerOutputIndependentOfTrackCreationOrder(t *testing.T) {
	a := untimed(buildTrace([]string{"run1", "run2"}).Events())
	b := untimed(buildTrace([]string{"run2", "run1"}).Events())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("trace structure depends on track creation order:\n%v\n%v", a, b)
	}
}

func TestTracerProducesValidRoundTrippableTrace(t *testing.T) {
	tr := buildTrace([]string{"run1", "run2"})
	events := tr.Events()
	if err := ValidateTrace(events); err != nil {
		t.Fatalf("tracer output invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round-trip lost events: %d -> %d", len(events), len(back))
	}
	if err := ValidateTrace(back); err != nil {
		t.Errorf("round-tripped trace invalid: %v", err)
	}
	// Two tracks in one group: one process metadata, two thread metadata.
	var procs, threads, spans int
	for _, e := range back {
		switch {
		case e.Phase == "M" && e.Name == "process_name":
			procs++
		case e.Phase == "M" && e.Name == "thread_name":
			threads++
		case e.Phase == "X":
			spans++
		}
	}
	if procs != 1 || threads != 2 || spans != 6 {
		t.Errorf("got %d processes, %d threads, %d spans; want 1/2/6", procs, threads, spans)
	}
}

func TestTrackSpansNest(t *testing.T) {
	tr := NewTracer()
	track := tr.NewTrack("g", "t")
	track.Begin("outer", "x")
	track.Begin("inner", "x")
	track.End()
	track.End()

	var outer, inner TraceEvent
	for _, e := range tr.Events() {
		switch e.Name {
		case "outer":
			outer = e
		case "inner":
			inner = e
		}
	}
	if outer.Phase != "X" || inner.Phase != "X" {
		t.Fatal("spans missing")
	}
	if inner.TS < outer.TS || inner.TS+inner.Dur > outer.TS+outer.Dur {
		t.Errorf("inner [%d,+%d] escapes outer [%d,+%d]", inner.TS, inner.Dur, outer.TS, outer.Dur)
	}
}

func TestNilTrackIsSafe(t *testing.T) {
	var track *Track
	track.Begin("a", "b")
	track.End()
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := map[string][]TraceEvent{
		"unknown phase": {{Name: "x", Phase: "B", PID: 1, TID: 1}},
		"unnamed span":  {{Phase: "X", PID: 1, TID: 1}},
		"negative dur":  {{Name: "x", Phase: "X", TS: 0, Dur: -1, PID: 1, TID: 1}},
		"bad metadata":  {{Name: "weird_meta", Phase: "M", PID: 1}},
		"meta no name":  {{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{}}},
		"overlap": {
			{Name: "a", Phase: "X", TS: 0, Dur: 10, PID: 1, TID: 1},
			{Name: "b", Phase: "X", TS: 5, Dur: 10, PID: 1, TID: 1},
		},
	}
	for name, events := range cases {
		if err := ValidateTrace(events); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Disjoint and properly nested events pass.
	ok := []TraceEvent{
		{Name: "a", Phase: "X", TS: 0, Dur: 10, PID: 1, TID: 1},
		{Name: "b", Phase: "X", TS: 2, Dur: 5, PID: 1, TID: 1},
		{Name: "c", Phase: "X", TS: 20, Dur: 5, PID: 1, TID: 1},
		// Same window on another thread is unrelated.
		{Name: "d", Phase: "X", TS: 5, Dur: 100, PID: 1, TID: 2},
	}
	if err := ValidateTrace(ok); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

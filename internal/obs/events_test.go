package obs

import (
	"bytes"
	"testing"
)

func TestEventKindRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		got, err := ParseEventKind(k.String())
		if err != nil {
			t.Fatalf("ParseEventKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v → %v", k, got)
		}
	}
	if _, err := ParseEventKind("bogus"); err == nil {
		t.Fatal("ParseEventKind accepted an unknown kind")
	}
}

func TestLogQueries(t *testing.T) {
	l := NewLog(0)
	l.Emit(Event{Seconds: 1, Kind: EventShed, Server: 3})
	l.Emit(Event{Seconds: 2, Kind: EventRestore, Server: 3})
	l.Emit(Event{Seconds: 5, Kind: EventShed, Server: 7})
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if got := l.Events(); len(got) != 3 || got[2].Kind != EventShed || got[2].Server != 7 {
		t.Fatalf("Events() = %+v", got)
	}
	if got := l.Between(1.5, 5); len(got) != 1 || got[0].Kind != EventRestore {
		t.Fatalf("Between(1.5,5) = %+v", got)
	}
}

func TestLogCapDropsAndCounts(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 5; i++ {
		l.Emit(Event{Seconds: float64(i), Kind: EventShed})
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", l.Dropped())
	}
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seconds: 0, Kind: EventRunStart, Server: -1, Detail: "HEB-D"},
		{Seconds: 12, Kind: EventHandoff, Server: 4, From: "battery", To: "supercap"},
		{Seconds: 30, Kind: EventMismatchBegin, Server: -1, Watts: 812.5},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL[Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL[Event](bytes.NewBufferString("{not json\n")); err == nil {
		t.Fatal("ReadJSONL accepted garbage")
	}
}

func TestMultiSink(t *testing.T) {
	if MultiSink(nil, nil) != nil {
		t.Fatal("all-nil MultiSink should collapse to nil")
	}
	a := NewLog(0)
	if got := MultiSink(nil, a); got != EventSink(a) {
		t.Fatal("single live sink should be returned unwrapped")
	}
	b := NewLog(0)
	m := MultiSink(a, b)
	m.Emit(Event{Kind: EventShed})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out failed: a=%d b=%d", a.Len(), b.Len())
	}
}

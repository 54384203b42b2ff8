package alerts_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
)

// The alerts.jsonl codec is obs's shared JSONL codec; obs imports this
// package, so its tests live in an external test package.

func TestJSONLRoundTrip(t *testing.T) {
	events := []alerts.Event{
		{Seconds: 1, Kind: alerts.KindSoCFloor, Severity: alerts.SeverityCritical, Device: "battery/0", Value: 0.01, Limit: 0.05, Run: "r1"},
		{Seconds: 2, Kind: alerts.KindRampRate, Severity: alerts.SeverityWarn, Value: 900, Limit: 250, Detail: "bus ramp outside envelope", Run: "r2"},
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONL[alerts.Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
	// Unknown kinds must be rejected, not silently zeroed.
	if _, err := obs.ReadJSONL[alerts.Event](strings.NewReader(`{"t":1,"kind":"made_up","severity":"warn"}` + "\n")); err == nil {
		t.Error("accepted unknown kind")
	}
	if _, err := obs.ReadJSONL[alerts.Event](strings.NewReader(`{"t":1,"kind":"soc_floor","severity":"fatal"}` + "\n")); err == nil {
		t.Error("accepted unknown severity")
	}
}

// FuzzReadEvents feeds the alerts.jsonl reader arbitrary bytes:
// malformed input must come back as an error, never a panic, and
// whatever parses must survive a write/read round trip unchanged. Seeds
// are the golden capture artifacts; testdata/fuzz/FuzzReadEvents holds
// the malformed corpus.
func FuzzReadEvents(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "golden", "*", "alerts.jsonl"))
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, err := obs.ReadJSONL[alerts.Event](bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := obs.WriteJSONL(&once, events); err != nil {
			t.Fatal(err)
		}
		again, err := obs.ReadJSONL[alerts.Event](bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written events failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip kept %d of %d events", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d changed across a round trip: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}

package alerts

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

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
		events, err := ReadEvents(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteEventsJSONL(&once, events); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEvents(bytes.NewReader(once.Bytes()))
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

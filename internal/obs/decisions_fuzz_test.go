package obs

import (
	"bytes"
	"testing"
)

// FuzzReadDecisions feeds the decisions.jsonl reader arbitrary bytes:
// malformed input must come back as an error, never a panic, and
// whatever parses must survive a write/read round trip unchanged. The
// seed is a two-slot trace in the writer's own format;
// testdata/fuzz/FuzzReadDecisions holds the malformed corpus.
func FuzzReadDecisions(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteDecisionsJSONL(&seed, []DecisionRecord{
		{Slot: 1, Seconds: 0, Scheme: "HEB-D", SCFrac: 0.9, BAFrac: 0.8, BudgetW: 280,
			PredictedPeakW: 310, SmallPeak: true, Mode: "sc-first", Completed: true,
			ActualPeakW: 305, SCFracEnd: 0.4, Run: "HEB-D|PR|1h|seed=1"},
		{Slot: 2, Seconds: 600, Scheme: "HEB-D", Mode: "split", Ratio: 0.35,
			PATLookups: 3, PATMisses: 1, Run: "HEB-D|PR|1h|seed=1"},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadDecisions(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteDecisionsJSONL(&once, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadDecisions(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written decisions failed: %v", err)
		}
		if err := WriteDecisionsJSONL(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("decisions changed across a round trip:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

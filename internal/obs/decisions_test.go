package obs

import (
	"bytes"
	"testing"
)

func sampleRecord(slot int, mode string, ratio float64) DecisionRecord {
	return DecisionRecord{
		Slot: slot, Seconds: float64(slot) * 600, Scheme: "HEB-D",
		SCFrac: 0.8, BAFrac: 0.9, SCAvailWh: 40, BAAvailWh: 360, BudgetW: 1200,
		PredictedPeakW: 1500, PredictedValleyW: 900, PredictedPMW: 600, PredictedOverW: 300,
		Mode: mode, Ratio: ratio, Completed: true,
		ActualPeakW: 1480, ActualValleyW: 910, ActualPMW: 570, ActualOverW: 280,
		SCFracEnd: 0.5, BAFracEnd: 0.85, RatioUsed: ratio,
	}
}

func TestDecisionLogAndJSONLRoundTrip(t *testing.T) {
	l := NewDecisionLog()
	l.Append(sampleRecord(1, "supercap-first", 1))
	l.Append(sampleRecord(2, "split", 0.62))
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if r := l.Records()[1]; r.Slot != 2 || r.Mode != "split" {
		t.Fatalf("record 2 = %+v", r)
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, l.Records()); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL[DecisionRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round trip length %d, want 2", len(out))
	}
	for i, want := range l.Records() {
		if out[i] != want {
			t.Fatalf("record %d: %+v != %+v", i, out[i], want)
		}
	}
}

func TestDiffDecisions(t *testing.T) {
	a := []DecisionRecord{
		sampleRecord(1, "supercap-first", 1),
		sampleRecord(2, "split", 0.62),
		sampleRecord(3, "split", 0.50),
	}
	b := []DecisionRecord{
		sampleRecord(1, "supercap-first", 1),   // identical
		sampleRecord(2, "battery-first", 0.62), // mode differs
		sampleRecord(3, "split", 0.58),         // ratio differs
		sampleRecord(4, "split", 0.40),         // only in b
	}
	diffs := DiffDecisions(a, b, 0.01)
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3: %+v", len(diffs), diffs)
	}
	bySlot := map[int]DecisionDiff{}
	for _, d := range diffs {
		bySlot[d.Slot] = d
	}
	if d := bySlot[2]; d.Why != "mode split vs battery-first" {
		t.Fatalf("slot 2 why = %q", d.Why)
	}
	if d := bySlot[3]; d.Why != "ratio 0.5000 vs 0.5800" {
		t.Fatalf("slot 3 why = %q", d.Why)
	}
	if d := bySlot[4]; d.Why != "slot missing from A" {
		t.Fatalf("slot 4 why = %q", d.Why)
	}
	// Within tolerance → no diff.
	if diffs := DiffDecisions(a[:1], b[:1], 0.01); len(diffs) != 0 {
		t.Fatalf("identical traces diffed: %+v", diffs)
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// checkCSVRoundTrip holds a trace that parsed and validated to the CSV
// contract: WriteCSV then ReadCSV gives back the same step and samples.
func checkCSVRoundTrip(t *testing.T, tr *Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV of a valid trace: %v", err)
	}
	back, err := ReadCSV(&buf, tr.Name, tr.Step)
	if err != nil {
		t.Fatalf("ReadCSV of a written trace: %v", err)
	}
	if back.Step != tr.Step {
		t.Fatalf("step %v came back as %v", tr.Step, back.Step)
	}
	if back.Steps() != tr.Steps() || back.Servers() != tr.Servers() {
		t.Fatalf("shape %dx%d came back as %dx%d", tr.Steps(), tr.Servers(), back.Steps(), back.Servers())
	}
	for i, row := range tr.Samples {
		for j, v := range row {
			if back.Samples[i][j] != v {
				t.Fatalf("sample [%d][%d] = %g came back as %g", i, j, v, back.Samples[i][j])
			}
		}
	}
}

// FuzzReadCSV feeds the workload CSV reader (hebsim -workload-csv)
// arbitrary bytes: malformed input must come back as an error, never a
// panic, and whatever ReadCSV and Validate both accept must survive a
// WriteCSV/ReadCSV round trip. testdata/fuzz/FuzzReadCSV holds the
// malformed corpus.
func FuzzReadCSV(f *testing.F) {
	tr := MustNew("seed", 10*time.Second, 2, 3)
	tr.Samples[1][0], tr.Samples[2][1] = 0.25, 1
	var seed bytes.Buffer
	if err := tr.WriteCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadCSV(bytes.NewReader(raw), "fuzz", 10*time.Second)
		if err != nil || tr.Validate() != nil {
			return
		}
		tr.At(time.Hour)
		checkCSVRoundTrip(t, tr)
	})
}

// FuzzTraceJSON feeds Trace.UnmarshalJSON arbitrary bytes: malformed
// input must come back as an error, never a panic, a decoded trace must
// have a usable step, and whatever decodes and validates must survive a
// WriteCSV/ReadCSV round trip. testdata/fuzz/FuzzTraceJSON holds the
// malformed corpus.
func FuzzTraceJSON(f *testing.F) {
	tr := MustNew("seed", 500*time.Millisecond, 2, 2)
	tr.Samples[1][1] = 0.75
	seed, err := json.Marshal(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var tr Trace
		if err := json.Unmarshal(raw, &tr); err != nil {
			return
		}
		if tr.Step <= 0 {
			t.Fatalf("decoded step %v is not positive", tr.Step)
		}
		tr.At(time.Hour)
		if tr.Validate() != nil {
			return
		}
		checkCSVRoundTrip(t, &tr)
	})
}

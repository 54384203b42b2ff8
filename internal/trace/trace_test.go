package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, 2, 10); err == nil {
		t.Error("accepted zero step")
	}
	if _, err := New("x", time.Second, 0, 10); err == nil {
		t.Error("accepted zero servers")
	}
	if _, err := New("x", time.Second, 2, -1); err == nil {
		t.Error("accepted negative steps")
	}
	tr, err := New("x", time.Second, 3, 5)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tr.Servers() != 3 || tr.Steps() != 5 || tr.Duration() != 5*time.Second {
		t.Errorf("metadata wrong: %d servers %d steps %v", tr.Servers(), tr.Steps(), tr.Duration())
	}
}

func TestAtWrapsAround(t *testing.T) {
	tr := MustNew("x", time.Second, 1, 3)
	tr.Samples[0][0] = 0.1
	tr.Samples[1][0] = 0.2
	tr.Samples[2][0] = 0.3
	tests := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0.1},
		{time.Second, 0.2},
		{2500 * time.Millisecond, 0.3},
		{3 * time.Second, 0.1}, // wrap
		{-time.Second, 0.1},    // negative clamps to start
	}
	for _, tt := range tests {
		if got := tr.At(tt.t)[0]; got != tt.want {
			t.Errorf("At(%v) = %g, want %g", tt.t, got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	tr := MustNew("x", time.Second, 2, 2)
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	tr.Samples[1][1] = 1.5
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range sample accepted")
	}
	tr.Samples[1][1] = 0.5
	tr.Samples[0] = tr.Samples[0][:1]
	if err := tr.Validate(); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestSlice(t *testing.T) {
	tr := MustNew("x", time.Second, 1, 10)
	sub, err := tr.Slice(2, 5)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if sub.Steps() != 3 {
		t.Errorf("slice steps %d, want 3", sub.Steps())
	}
	if _, err := tr.Slice(5, 2); err == nil {
		t.Error("inverted slice accepted")
	}
	if _, err := tr.Slice(0, 11); err == nil {
		t.Error("overlong slice accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := MustNew("rt", 2*time.Second, 3, 5)
	for i := range tr.Samples {
		for j := range tr.Samples[i] {
			tr.Samples[i][j] = float64(i*3+j) / 20
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "rt", time.Second)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Step != 2*time.Second {
		t.Errorf("recovered step %v, want 2s", back.Step)
	}
	if back.Steps() != tr.Steps() || back.Servers() != tr.Servers() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d",
			back.Steps(), back.Servers(), tr.Steps(), tr.Servers())
	}
	for i := range tr.Samples {
		for j := range tr.Samples[i] {
			if math.Abs(back.Samples[i][j]-tr.Samples[i][j]) > 1e-12 {
				t.Fatalf("sample [%d][%d] = %g, want %g", i, j, back.Samples[i][j], tr.Samples[i][j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "x", time.Second); err == nil {
		t.Error("accepted empty csv")
	}
	if _, err := ReadCSV(strings.NewReader("t_seconds\n"), "x", time.Second); err == nil {
		t.Error("accepted header without server columns")
	}
	bad := "t_seconds,server0\n0,notanumber\n"
	if _, err := ReadCSV(strings.NewReader(bad), "x", time.Second); err == nil {
		t.Error("accepted non-numeric sample")
	}
	// Single row: step unrecoverable, fallback must be used.
	one := "t_seconds,server0\n0,0.5\n"
	tr, err := ReadCSV(strings.NewReader(one), "x", 3*time.Second)
	if err != nil {
		t.Fatalf("ReadCSV single row: %v", err)
	}
	if tr.Step != 3*time.Second {
		t.Errorf("fallback step not used: %v", tr.Step)
	}
	if _, err := ReadCSV(strings.NewReader(one), "x", 0); err == nil {
		t.Error("accepted unrecoverable step with no fallback")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := MustNew("js", 500*time.Millisecond, 2, 3)
	tr.Samples[1][1] = 0.75
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Name != "js" || back.Step != 500*time.Millisecond {
		t.Errorf("metadata lost: %q %v", back.Name, back.Step)
	}
	if back.Samples[1][1] != 0.75 {
		t.Errorf("sample lost: %g", back.Samples[1][1])
	}
	if err := json.Unmarshal([]byte(`{"step_seconds":0}`), &back); err == nil {
		t.Error("accepted zero step json")
	}
}

func TestSeries(t *testing.T) {
	if _, err := NewSeries("x", 0, nil); err == nil {
		t.Error("accepted zero step")
	}
	s := MustNewSeries("s", time.Minute, []float64{1, 3, 2})
	if got := s.At(0); got != 1 {
		t.Errorf("At(0) = %g", got)
	}
	if got := s.At(4 * time.Minute); got != 3 { // wraps
		t.Errorf("At(4m) = %g, want 3", got)
	}
	if got := s.Max(); got != 3 {
		t.Errorf("Max = %g", got)
	}
	if got := s.Mean(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if got := s.Duration(); got != 3*time.Minute {
		t.Errorf("Duration = %v", got)
	}
	empty := MustNewSeries("e", time.Second, nil)
	if empty.At(time.Hour) != 0 || empty.Max() != 0 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty series should return zeros")
	}
}

func TestSeriesQuantile(t *testing.T) {
	s := MustNewSeries("q", time.Second, []float64{5, 1, 3, 2, 4})
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %g, want 1", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %g, want 5", got)
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %g, want 3", got)
	}
	// Quantile must not mutate the series.
	if s.Values[0] != 5 {
		t.Error("Quantile sorted the underlying values")
	}
}

func TestMerge(t *testing.T) {
	a := MustNew("a", time.Second, 2, 3)
	b := MustNew("b", time.Second, 1, 3)
	a.Samples[1] = []float64{0.1, 0.2}
	b.Samples[1] = []float64{0.9}
	m, err := Merge("ab", a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if m.Servers() != 3 || m.Steps() != 3 {
		t.Fatalf("merged shape %dx%d, want 3x3", m.Steps(), m.Servers())
	}
	want := []float64{0.1, 0.2, 0.9}
	for j, w := range want {
		if m.Samples[1][j] != w {
			t.Errorf("merged row %v, want %v", m.Samples[1], want)
			break
		}
	}
	if m.Name != "ab" {
		t.Errorf("merged name %q", m.Name)
	}
}

func TestMergeShortestBounds(t *testing.T) {
	a := MustNew("a", time.Second, 1, 5)
	b := MustNew("b", time.Second, 1, 3)
	m, err := Merge("ab", a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if m.Steps() != 3 {
		t.Errorf("merged steps %d, want 3 (shortest input)", m.Steps())
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge("x"); err == nil {
		t.Error("accepted zero inputs")
	}
	if _, err := Merge("x", nil); err == nil {
		t.Error("accepted nil input")
	}
	a := MustNew("a", time.Second, 1, 3)
	b := MustNew("b", 2*time.Second, 1, 3)
	if _, err := Merge("ab", a, b); err == nil {
		t.Error("accepted mismatched steps")
	}
}

// TestValidateRejectsNonFinite: NaN fails every comparison, so a plain
// range check passes it; Validate must still refuse it, and infinities,
// and a trace without samples.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := MustNew("x", time.Second, 2, 2)
		tr.Samples[1][0] = v
		if err := tr.Validate(); err == nil {
			t.Errorf("sample %g accepted", v)
		}
	}
	csvNaN := "t_seconds,server0\n0,0.5\n10,NaN\n"
	tr, err := ReadCSV(strings.NewReader(csvNaN), "x", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err == nil {
		t.Error("CSV with a NaN cell validated")
	}
	if err := MustNew("x", time.Second, 1, 0).Validate(); err == nil {
		t.Error("trace without rows validated")
	}
}

// TestJSONRejectsUnrepresentableStep: a step below one nanosecond
// truncates to a zero Duration, which At would divide by, and one past
// the Duration range wraps negative.
func TestJSONRejectsUnrepresentableStep(t *testing.T) {
	for _, raw := range []string{
		`{"step_seconds":1e-12,"samples":[[0.5]]}`,
		`{"step_seconds":1e300,"samples":[[0.5]]}`,
	} {
		var tr Trace
		if err := json.Unmarshal([]byte(raw), &tr); err == nil {
			t.Errorf("%s accepted with step %v", raw, tr.Step)
		}
	}
}

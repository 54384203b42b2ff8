package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d workloads, want 8", len(cat))
	}
	wantClass := map[string]Class{
		"PR": LargePeaks, "WC": LargePeaks, "DA": LargePeaks, "WS": LargePeaks,
		"MS": SmallPeaks, "DFS": SmallPeaks, "HB": SmallPeaks, "TS": SmallPeaks,
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog spec %s invalid: %v", s.Abbrev, err)
		}
		want, ok := wantClass[s.Abbrev]
		if !ok {
			t.Errorf("unexpected workload %s", s.Abbrev)
			continue
		}
		if s.Class != want {
			t.Errorf("%s class = %v, want %v", s.Abbrev, s.Class, want)
		}
		seen[s.Abbrev] = true
	}
	if len(seen) != 8 {
		t.Errorf("catalog covers %d of 8 abbreviations", len(seen))
	}
}

func TestByAbbrev(t *testing.T) {
	s, err := ByAbbrev("TS")
	if err != nil {
		t.Fatalf("ByAbbrev(TS): %v", err)
	}
	if s.Name != "Terasort" {
		t.Errorf("TS resolves to %q", s.Name)
	}
	if _, err := ByAbbrev("NOPE"); err == nil {
		t.Error("unknown abbreviation accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	base := Catalog()[0]
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"base out of range", func(s *Spec) { s.BaseUtil = -0.1 }},
		{"peak below base", func(s *Spec) { s.PeakUtil = s.BaseUtil - 0.1 }},
		{"peak above one", func(s *Spec) { s.PeakUtil = 1.1 }},
		{"zero period", func(s *Spec) { s.Period = 0 }},
		{"width beyond period", func(s *Spec) { s.Width = s.Period + time.Second }},
		{"jitter above one", func(s *Spec) { s.Jitter = 2 }},
		{"negative correlation", func(s *Spec) { s.Correlation = -0.5 }},
		{"huge noise", func(s *Spec) { s.Noise = 0.9 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := base
			m.mut(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", s)
			}
		})
	}
}

func TestGenerateShapeAndBounds(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Abbrev, func(t *testing.T) {
			tr, err := spec.Generate(42, 6, time.Hour, 10*time.Second)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("generated trace invalid: %v", err)
			}
			if tr.Servers() != 6 || tr.Steps() != 360 {
				t.Fatalf("shape %dx%d, want 360x6", tr.Steps(), tr.Servers())
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Catalog()[0]
	a := spec.MustGenerate(7, 4, 30*time.Minute, 10*time.Second)
	b := spec.MustGenerate(7, 4, 30*time.Minute, 10*time.Second)
	for i := range a.Samples {
		for j := range a.Samples[i] {
			if a.Samples[i][j] != b.Samples[i][j] {
				t.Fatalf("same seed diverged at [%d][%d]", i, j)
			}
		}
	}
	c := spec.MustGenerate(8, 4, 30*time.Minute, 10*time.Second)
	same := true
	for i := range a.Samples {
		for j := range a.Samples[i] {
			if a.Samples[i][j] != c.Samples[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	spec := Catalog()[0]
	if _, err := spec.Generate(1, 0, time.Hour, time.Second); err == nil {
		t.Error("accepted zero servers")
	}
	if _, err := spec.Generate(1, 2, 0, time.Second); err == nil {
		t.Error("accepted zero duration")
	}
	if _, err := spec.Generate(1, 2, time.Second, time.Minute); err == nil {
		t.Error("accepted step > duration")
	}
	bad := spec
	bad.PeakUtil = 2
	if _, err := bad.Generate(1, 2, time.Hour, time.Second); err == nil {
		t.Error("accepted invalid spec")
	}
}

func TestLargePeaksAreTallerAndLonger(t *testing.T) {
	// The defining property of the two families: large-peak workloads
	// spend more time at high utilization and reach higher aggregates.
	heights := map[Class][]float64{}
	highTime := map[Class][]float64{}
	for _, spec := range Catalog() {
		tr := spec.MustGenerate(99, 6, 2*time.Hour, 10*time.Second)
		var max float64
		over := 0
		for _, row := range tr.Samples {
			var v float64
			for _, u := range row {
				v += u
			}
			if v > max {
				max = v
			}
			if v > 0.75*6 {
				over++
			}
		}
		heights[spec.Class] = append(heights[spec.Class], max/6)
		highTime[spec.Class] = append(highTime[spec.Class], float64(over)/float64(len(tr.Samples)))
	}
	if meanOf(heights[LargePeaks]) <= meanOf(heights[SmallPeaks]) {
		t.Errorf("large-peak heights %v not above small-peak %v",
			heights[LargePeaks], heights[SmallPeaks])
	}
	if meanOf(highTime[LargePeaks]) <= meanOf(highTime[SmallPeaks]) {
		t.Errorf("large-peak high-utilization time %v not above small-peak %v",
			highTime[LargePeaks], highTime[SmallPeaks])
	}
}

func TestCorrelationBindsServersTogether(t *testing.T) {
	spec := Catalog()[0]
	spec.Correlation = 1
	spec.Noise = 0
	spec.Jitter = 0
	tr := spec.MustGenerate(5, 4, time.Hour, 10*time.Second)
	for i, row := range tr.Samples {
		for j := 1; j < len(row); j++ {
			if math.Abs(row[j]-row[0]) > 1e-9 {
				t.Fatalf("fully correlated servers diverge at step %d: %v", i, row)
			}
		}
	}
}

func TestClusterTrace(t *testing.T) {
	s, err := ClusterTrace(1, 24*time.Hour, time.Minute)
	if err != nil {
		t.Fatalf("ClusterTrace: %v", err)
	}
	if len(s.Values) != 24*60 {
		t.Fatalf("series length %d, want 1440", len(s.Values))
	}
	if math.Abs(s.Max()-1) > 1e-9 {
		t.Errorf("max %g, want normalized to 1", s.Max())
	}
	for i, v := range s.Values {
		if v < 0 || v > 1 {
			t.Fatalf("value[%d] = %g outside [0,1]", i, v)
		}
	}
	// The trace must be bursty: the 99th percentile should sit well
	// above the median (heavy-tailed spikes).
	if s.Quantile(0.99) < s.Quantile(0.5)*1.1 {
		t.Errorf("trace not bursty: p99 %g vs median %g", s.Quantile(0.99), s.Quantile(0.5))
	}
	if _, err := ClusterTrace(1, 0, time.Minute); err == nil {
		t.Error("accepted zero duration")
	}
}

func TestClusterTraceDeterministic(t *testing.T) {
	a := MustClusterTrace(3, time.Hour, time.Minute)
	b := MustClusterTrace(3, time.Hour, time.Minute)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestClassString(t *testing.T) {
	if SmallPeaks.String() == LargePeaks.String() {
		t.Error("class strings collide")
	}
}

func meanOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TestPaintBurstMatchesFullScan checks the range-bounded burst painter
// against a scan of every sample, bit for bit, across burst starts on
// and off the step grid, bursts narrower than a step, and bursts that
// start before zero or run past the envelope's end.
func TestPaintBurstMatchesFullScan(t *testing.T) {
	fullScan := func(env []float64, step, t0, width time.Duration, height float64) {
		ramp := width / 10
		if ramp < step {
			ramp = step
		}
		for i := range env {
			tt := time.Duration(i) * step
			var v float64
			switch {
			case tt < t0 || tt >= t0+width:
				continue
			case tt < t0+ramp:
				v = float64(tt-t0) / float64(ramp)
			case tt >= t0+width-ramp:
				v = float64(t0+width-tt) / float64(ramp)
			default:
				v = 1
			}
			v *= height
			if v > env[i] {
				env[i] = v
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	const n = 500
	for trial := 0; trial < 2000; trial++ {
		step := time.Duration(1+rng.Intn(3)) * time.Second
		t0 := time.Duration(rng.Int63n(int64(n+20)*int64(step))) - 10*step
		if trial%3 == 0 {
			t0 = t0 / step * step // on the grid
		}
		width := time.Duration(rng.Int63n(int64(80 * step)))
		height := rng.Float64()
		got, want := make([]float64, n), make([]float64, n)
		for i := range got {
			got[i] = rng.Float64() * 0.3
			want[i] = got[i]
		}
		paintBurst(got, step, t0, width, height)
		fullScan(want, step, t0, width, height)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %v t0 %v width %v: sample %d = %v, full scan %v", step, t0, width, i, got[i], want[i])
			}
		}
	}
}

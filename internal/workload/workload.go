// Package workload generates the utilization traces that drive the HEB
// evaluation. The paper runs eight HiBench / CloudSuite workloads on the
// prototype purely as peak-shape generators: one group is pinned at the
// high DVFS point to create large, long power peaks and the other at the
// low point to create small, narrow peaks ("our method is similar to [8],
// which leverages SPECjbb to construct various peak demand curves").
//
// This package reproduces those two peak-shape families with per-workload
// parameterization (burst period, width, height, arrival jitter), plus a
// Google-cluster-like bursty aggregate trace for the Figure 1 provisioning
// analysis.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"heb/internal/trace"
)

// Class is the peak-shape family of a workload (paper Table 1).
type Class int

const (
	// SmallPeaks are mild, narrow, frequent power peaks (the low-
	// frequency group: MS, DFS, HB, TS).
	SmallPeaks Class = iota
	// LargePeaks are tall, wide, sustained power peaks (the high-
	// frequency group: PR, WC, DA, WS).
	LargePeaks
)

// String names the class.
func (c Class) String() string {
	if c == SmallPeaks {
		return "small-peaks"
	}
	return "large-peaks"
}

// Spec describes one workload's statistical shape.
type Spec struct {
	// Name is the full workload name from Table 1.
	Name string
	// Abbrev is the paper's abbreviation (PR, WC, ...).
	Abbrev string
	// Category is the benchmark-suite category from Table 1.
	Category string
	// Class is the peak-shape family.
	Class Class

	// BaseUtil is the trough utilization between bursts.
	BaseUtil float64
	// PeakUtil is the plateau utilization during a burst.
	PeakUtil float64
	// Period is the mean time between burst starts.
	Period time.Duration
	// Width is the mean burst duration.
	Width time.Duration
	// Jitter is the relative randomization of period, width and height
	// (0 = perfectly periodic).
	Jitter float64
	// Correlation is how strongly servers burst together: 1 means all
	// servers peak in lockstep (cluster-wide job phases), 0 means fully
	// independent per-server bursts.
	Correlation float64
	// Noise is the standard deviation of per-sample utilization noise.
	Noise float64
}

// Validate reports the first invalid field.
func (s Spec) Validate() error {
	switch {
	case s.Name == "" || s.Abbrev == "":
		return fmt.Errorf("workload: spec needs a name and abbreviation")
	case s.BaseUtil < 0 || s.BaseUtil > 1:
		return fmt.Errorf("workload %s: base utilization %g outside [0,1]", s.Abbrev, s.BaseUtil)
	case s.PeakUtil < s.BaseUtil || s.PeakUtil > 1:
		return fmt.Errorf("workload %s: peak utilization %g outside [base,1]", s.Abbrev, s.PeakUtil)
	case s.Period <= 0:
		return fmt.Errorf("workload %s: period %v must be positive", s.Abbrev, s.Period)
	case s.Width <= 0 || s.Width > s.Period:
		return fmt.Errorf("workload %s: width %v outside (0, period]", s.Abbrev, s.Width)
	case s.Jitter < 0 || s.Jitter > 1:
		return fmt.Errorf("workload %s: jitter %g outside [0,1]", s.Abbrev, s.Jitter)
	case s.Correlation < 0 || s.Correlation > 1:
		return fmt.Errorf("workload %s: correlation %g outside [0,1]", s.Abbrev, s.Correlation)
	case s.Noise < 0 || s.Noise > 0.5:
		return fmt.Errorf("workload %s: noise %g outside [0,0.5]", s.Abbrev, s.Noise)
	}
	return nil
}

// Catalog returns the paper's eight workloads (Table 1) in paper order.
// Parameter choices encode the two peak families: the large-peak group
// peaks near full utilization for minutes at a time; the small-peak group
// produces short, mild bursts.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "Page Rank Algorithm of Mahout", Abbrev: "PR",
			Category: "Web Search Benchmarks", Class: LargePeaks,
			BaseUtil: 0.12, PeakUtil: 0.96, Period: 85 * time.Minute,
			Width: 24 * time.Minute, Jitter: 0.25, Correlation: 0.9, Noise: 0.03,
		},
		{
			Name: "Word Count Program on Hadoop", Abbrev: "WC",
			Category: "Micro Benchmarks", Class: LargePeaks,
			BaseUtil: 0.10, PeakUtil: 0.92, Period: 80 * time.Minute,
			Width: 22 * time.Minute, Jitter: 0.30, Correlation: 0.85, Noise: 0.04,
		},
		{
			Name: "Data Analysis", Abbrev: "DA",
			Category: "CloudSuite Benchmarks", Class: LargePeaks,
			BaseUtil: 0.13, PeakUtil: 1.00, Period: 95 * time.Minute,
			Width: 28 * time.Minute, Jitter: 0.20, Correlation: 0.9, Noise: 0.03,
		},
		{
			Name: "Web Search", Abbrev: "WS",
			Category: "CloudSuite Benchmarks", Class: LargePeaks,
			BaseUtil: 0.14, PeakUtil: 0.95, Period: 90 * time.Minute,
			Width: 25 * time.Minute, Jitter: 0.35, Correlation: 0.8, Noise: 0.04,
		},
		{
			Name: "Media Streaming", Abbrev: "MS",
			Category: "CloudSuite Benchmarks", Class: SmallPeaks,
			BaseUtil: 0.15, PeakUtil: 0.56, Period: 7 * time.Minute,
			Width: 100 * time.Second, Jitter: 0.30, Correlation: 0.7, Noise: 0.03,
		},
		{
			Name: "Dfsioe", Abbrev: "DFS",
			Category: "HDFS Benchmarks", Class: SmallPeaks,
			BaseUtil: 0.13, PeakUtil: 0.52, Period: 6 * time.Minute,
			Width: 80 * time.Second, Jitter: 0.35, Correlation: 0.75, Noise: 0.04,
		},
		{
			Name: "Hivebench", Abbrev: "HB",
			Category: "Data Analytics", Class: SmallPeaks,
			BaseUtil: 0.15, PeakUtil: 0.58, Period: 8 * time.Minute,
			Width: 2 * time.Minute, Jitter: 0.25, Correlation: 0.8, Noise: 0.03,
		},
		{
			Name: "Terasort", Abbrev: "TS",
			Category: "Micro Benchmarks", Class: SmallPeaks,
			BaseUtil: 0.14, PeakUtil: 0.54, Period: 6*time.Minute + 30*time.Second,
			Width: 100 * time.Second, Jitter: 0.30, Correlation: 0.75, Noise: 0.04,
		},
	}
}

// ByAbbrev finds a catalog spec by its abbreviation.
func ByAbbrev(abbrev string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Abbrev == abbrev {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown abbreviation %q", abbrev)
}

// Generate produces a per-server utilization trace for the spec.
// Generation is deterministic for a given (spec, seed, servers, duration,
// step) so experiments are reproducible.
func (s Spec) Generate(seed int64, servers int, duration, step time.Duration) (*trace.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if servers <= 0 {
		return nil, fmt.Errorf("workload %s: server count %d must be positive", s.Abbrev, servers)
	}
	if duration <= 0 || step <= 0 || step > duration {
		return nil, fmt.Errorf("workload %s: bad duration %v / step %v", s.Abbrev, duration, step)
	}
	steps := int(duration / step)
	tr, err := trace.New(s.Abbrev, step, servers, steps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	// Build the shared (cluster-wide) burst envelope, then per-server
	// envelopes, then mix by Correlation.
	shared := s.burstEnvelope(rng, steps, step)
	for srv := 0; srv < servers; srv++ {
		own := s.burstEnvelope(rng, steps, step)
		for i := 0; i < steps; i++ {
			env := s.Correlation*shared[i] + (1-s.Correlation)*own[i]
			u := s.BaseUtil + (s.PeakUtil-s.BaseUtil)*env
			u += rng.NormFloat64() * s.Noise
			tr.Samples[i][srv] = clamp01(u)
		}
	}
	return tr, nil
}

// MustGenerate is Generate for known-good parameters.
func (s Spec) MustGenerate(seed int64, servers int, duration, step time.Duration) *trace.Trace {
	tr, err := s.Generate(seed, servers, duration, step)
	if err != nil {
		panic(err)
	}
	return tr
}

// burstEnvelope returns a 0..1 envelope with trapezoidal bursts: ramp up
// over 10% of the width, plateau, ramp down.
func (s Spec) burstEnvelope(rng *rand.Rand, steps int, step time.Duration) []float64 {
	env := make([]float64, steps)
	t := jitterDuration(rng, s.Period/2, s.Jitter) // first burst mid-period
	for t < time.Duration(steps)*step {
		width := jitterDuration(rng, s.Width, s.Jitter)
		height := clamp01(1 + rng.NormFloat64()*s.Jitter/2)
		paintBurst(env, step, t, width, height)
		t += jitterDuration(rng, s.Period, s.Jitter)
	}
	return env
}

// paintBurst adds a trapezoidal pulse of the given height starting at t0.
func paintBurst(env []float64, step time.Duration, t0, width time.Duration, height float64) {
	ramp := width / 10
	if ramp < step {
		ramp = step
	}
	// Only samples in [t0, t0+width) change, so start at the burst and
	// stop after it instead of scanning the whole envelope.
	for i := max(0, int(t0/step)); i < len(env); i++ {
		tt := time.Duration(i) * step
		var v float64
		switch {
		case tt >= t0+width:
			return
		case tt < t0:
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

// jitterDuration perturbs d by a uniform factor in [1-j, 1+j].
func jitterDuration(rng *rand.Rand, d time.Duration, j float64) time.Duration {
	if j == 0 {
		return d
	}
	f := 1 + (rng.Float64()*2-1)*j
	out := time.Duration(float64(d) * f)
	if out < time.Second {
		out = time.Second
	}
	return out
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}

// ClusterTrace generates a Google-cluster-like normalized aggregate load
// series for the Figure 1 provisioning analysis: a diurnal base, bursty
// heavy-tailed spikes, and noise, normalized so the maximum is 1.
func ClusterTrace(seed int64, duration, step time.Duration) (*trace.Series, error) {
	if duration <= 0 || step <= 0 || step > duration {
		return nil, fmt.Errorf("workload: bad cluster trace duration %v / step %v", duration, step)
	}
	steps := int(duration / step)
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, steps)
	day := (24 * time.Hour).Seconds()
	// Ornstein-Uhlenbeck-ish noise state for temporal correlation.
	noise := 0.0
	for i := range values {
		tt := float64(i) * step.Seconds()
		diurnal := 0.55 + 0.15*math.Sin(2*math.Pi*tt/day-math.Pi/2)
		noise = 0.97*noise + rng.NormFloat64()*0.02
		v := diurnal + noise
		// Heavy-tailed spikes: ~2% of steps start a burst whose height
		// is Pareto-distributed.
		if rng.Float64() < 0.02 {
			v += 0.15 * math.Pow(rng.Float64(), -0.35) * 0.5
		}
		values[i] = clamp01(v)
	}
	// Normalize to max 1 (the trace represents load relative to the
	// nameplate peak).
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range values {
			values[i] /= max
		}
	}
	return trace.NewSeries("google-cluster-like", step, values)
}

// MustClusterTrace is ClusterTrace for known-good parameters.
func MustClusterTrace(seed int64, duration, step time.Duration) *trace.Series {
	s, err := ClusterTrace(seed, duration, step)
	if err != nil {
		panic(err)
	}
	return s
}

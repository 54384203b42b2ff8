// Package baseline computes statistical fleet baselines over run
// populations: robust location/spread (median and MAD) per metric and
// robust z-score outlier classification. It is the math layer under
// registry.Score and the `hebobs watch` regression sentinel; it deliberately
// knows nothing about registries or manifests, only float populations,
// so the same machinery scores run metrics and benchmark series alike.
package baseline

import (
	"math"
	"sort"
)

// Consistency scales MAD to the standard deviation of a normal
// distribution: z = Consistency * (x - median) / MAD.
const Consistency = 0.6745

// Default classification thresholds on |z|: conservative enough that a
// healthy 100-run sweep stays quiet, loud enough that a diverging model
// (Kilian et al.'s silently-wrong battery approximations) stands out.
const (
	// WarnZ flags a moderate outlier.
	WarnZ = 3.5
	// CriticalZ flags a far outlier.
	CriticalZ = 8
)

// MinCohort is the smallest population robust stats are trusted on;
// below it every score reports VerdictNoBaseline.
const MinCohort = 4

// Verdicts, ordered by severity.
const (
	// VerdictNoBaseline means the cohort was too small to judge.
	VerdictNoBaseline = "no_baseline"
	VerdictOK         = "ok"
	VerdictWarn       = "warn"
	VerdictCritical   = "critical"
)

// rank orders verdicts for Worst.
func rank(v string) int {
	switch v {
	case VerdictCritical:
		return 3
	case VerdictWarn:
		return 2
	case VerdictOK:
		return 1
	default: // no_baseline and unknowns never dominate a real verdict
		return 0
	}
}

// Worst returns the most severe of the given verdicts; with none given
// (or only no_baseline) it returns VerdictNoBaseline.
func Worst(verdicts ...string) string {
	out := VerdictNoBaseline
	for _, v := range verdicts {
		if rank(v) > rank(out) {
			out = v
		}
	}
	return out
}

// Stats is the robust location/spread of one metric's population.
type Stats struct {
	// N is the population size.
	N int `json:"n"`
	// Median and MAD are the robust location and spread. MAD is zero
	// for a degenerate (constant) population.
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
}

// Median returns the population median (mean of the middle pair for an
// even count); NaN for an empty population.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MAD returns the median absolute deviation about med.
func MAD(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// Window bounds the population a baseline is computed over.
type Window struct {
	// MaxN, when positive, keeps only the last MaxN values of the
	// population (callers pass values in a deterministic order, so the
	// window is deterministic too).
	MaxN int
	// MinN overrides MinCohort when positive.
	MinN int
}

func (w Window) minN() int {
	if w.MinN > 0 {
		return w.MinN
	}
	return MinCohort
}

// Compute builds the robust stats of a population, applying the window.
func Compute(values []float64, w Window) Stats {
	if w.MaxN > 0 && len(values) > w.MaxN {
		values = values[len(values)-w.MaxN:]
	}
	if len(values) == 0 {
		return Stats{}
	}
	med := Median(values)
	return Stats{N: len(values), Median: med, MAD: MAD(values, med)}
}

// MaxZ saturates the robust z-score. Any deviation from a constant
// (zero-MAD) cohort is an unambiguous far outlier, but the score must
// stay finite: ±Inf cannot survive encoding/json, and the score rides
// the hebmon and `hebobs watch` wire forms.
const MaxZ = 1e6

// Z returns the robust z-score of x against the stats, saturated to
// ±MaxZ. A degenerate population (MAD zero) scores 0 when x sits
// exactly on the median and ±MaxZ otherwise.
func (s Stats) Z(x float64) float64 {
	d := x - s.Median
	if s.MAD == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(MaxZ, d)
	}
	return max(-MaxZ, min(MaxZ, Consistency*d/s.MAD))
}

// Score classifies x against the stats, honoring the window's minimum
// cohort size.
type Score struct {
	Value float64 `json:"value"`
	Stats
	// Z is the robust z-score (0 when the verdict is no_baseline).
	Z float64 `json:"z"`
	// Verdict is no_baseline, ok, warn or critical.
	Verdict string `json:"verdict"`
}

// ScoreValue classifies x against a population under the window.
func ScoreValue(x float64, values []float64, w Window) Score {
	st := Compute(values, w)
	sc := Score{Value: x, Stats: st}
	if st.N < w.minN() {
		sc.Verdict = VerdictNoBaseline
		return sc
	}
	sc.Z = st.Z(x)
	sc.Verdict = Classify(sc.Z)
	return sc
}

// Classify maps a robust z-score to a verdict.
func Classify(z float64) string {
	switch abs := math.Abs(z); {
	case abs >= CriticalZ:
		return VerdictCritical
	case abs >= WarnZ:
		return VerdictWarn
	default:
		return VerdictOK
	}
}

package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Baseline is the committed BENCH_prof.json schema: the top flat frames
// of a reference profile, stored as flat-percentage shares so the gate is
// machine-speed independent.
type Baseline struct {
	V int `json:"v"`
	// Sample is the value column the baseline was built from,
	// e.g. "alloc_space/bytes".
	Sample string `json:"sample"`
	// Source describes how to regenerate (the bench.sh -profile command).
	Source string          `json:"source,omitempty"`
	Frames []BaselineFrame `json:"frames"`
}

// BaselineFrame is one reference frame share.
type BaselineFrame struct {
	Name    string  `json:"name"`
	FlatPct float64 `json:"flat_pct"`
}

// CheckOpts tunes the regression gate.
type CheckOpts struct {
	// NewPct fails any frame absent from the baseline whose flat share
	// meets or exceeds this percentage.
	NewPct float64
	// GrowthFactor fails a known frame whose share grew past
	// baseline*factor (only when the grown share is at least NoisePct,
	// so 0.01%→0.03% jitter can't trip the gate).
	GrowthFactor float64
	// NoisePct is the minimum current share for a growth violation.
	NoisePct float64
}

// DefaultCheckOpts matches the CI gate: new frames ≥3% flat fail,
// existing frames growing beyond 1.5× fail once they matter (≥1%).
func DefaultCheckOpts() CheckOpts {
	return CheckOpts{NewPct: 3.0, GrowthFactor: 1.5, NoisePct: 1.0}
}

// Violation is one gate failure.
type Violation struct {
	Frame string
	// Kind is "new-frame" or "growth".
	Kind            string
	BasePct, CurPct float64
	Detail          string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (%s)", v.Kind, ShortName(v.Frame), v.Detail)
}

// NewBaseline snapshots a rollup's top-n frames into a committable
// baseline.
func NewBaseline(r *Rollup, n int, source string) *Baseline {
	b := &Baseline{V: 1, Sample: r.Sample.String(), Source: source}
	for _, f := range r.Top(n) {
		pct := r.FlatPct(f)
		if pct <= 0 {
			continue
		}
		b.Frames = append(b.Frames, BaselineFrame{Name: f.Name, FlatPct: round2(pct)})
	}
	return b
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// Check gates a current rollup against the baseline. Frames in the
// baseline that shrank or vanished never fail — improvements are free.
func Check(b *Baseline, cur *Rollup, opts CheckOpts) []Violation {
	if b.Sample != "" && cur.Sample.String() != b.Sample {
		return []Violation{{
			Kind:   "sample-mismatch",
			Detail: fmt.Sprintf("baseline is %s, profile is %s", b.Sample, cur.Sample),
		}}
	}
	base := map[string]float64{}
	for _, f := range b.Frames {
		base[f.Name] = f.FlatPct
	}
	var out []Violation
	for _, f := range cur.Top(0) {
		pct := cur.FlatPct(f)
		bp, known := base[f.Name]
		switch {
		case !known && pct >= opts.NewPct:
			out = append(out, Violation{
				Frame: f.Name, Kind: "new-frame", CurPct: pct,
				Detail: fmt.Sprintf("%.2f%% flat, not in baseline (limit %.2f%%)", pct, opts.NewPct),
			})
		case known && pct >= opts.NoisePct && bp > 0 && pct > bp*opts.GrowthFactor:
			out = append(out, Violation{
				Frame: f.Name, Kind: "growth", BasePct: bp, CurPct: pct,
				Detail: fmt.Sprintf("%.2f%% → %.2f%% flat (limit %.1f×)", bp, pct, opts.GrowthFactor),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CurPct > out[j].CurPct })
	return out
}

// WriteBaseline writes the baseline as stable, diff-friendly JSON.
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads and validates a BENCH_prof.json.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Frames) == 0 {
		return nil, fmt.Errorf("%s: baseline has no frames", path)
	}
	return &b, nil
}

package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"heb/internal/obs"
)

// MetricDelta is one headline metric that differs between two runs.
type MetricDelta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// Delta is B - A.
	Delta float64 `json:"delta"`
}

// DecisionDelta is one diverging control slot, serialized for the
// compare API. Missing sides stay nil (slot present in only one run).
type DecisionDelta struct {
	Slot int                 `json:"slot"`
	Why  string              `json:"why"`
	A    *obs.DecisionRecord `json:"a,omitempty"`
	B    *obs.DecisionRecord `json:"b,omitempty"`
}

// Comparison is the full cross-run report: headline metric deltas, a
// structural diff of the two run summaries, and the decision-trace
// divergence. Two byte-identical runs compare to an empty report with
// Identical set.
type Comparison struct {
	A Run `json:"a"`
	B Run `json:"b"`
	// SameConfig is true when both runs share the full configuration
	// key (scheme, workload, seed, every knob).
	SameConfig bool `json:"same_config"`
	// Identical is true when the runs also share the artifact content
	// fingerprint — same behaviour, not just same config.
	Identical bool `json:"identical"`
	// MetricDeltas lists the headline metrics whose values differ,
	// sorted by name.
	MetricDeltas []MetricDelta `json:"metric_deltas,omitempty"`
	// SummaryDiffs is the structural field diff of the two run
	// summaries (the `hebobs bisect` differ applied to RunSummary JSON).
	SummaryDiffs []obs.FieldDiff `json:"summary_diffs,omitempty"`
	// DecisionDiffs counts diverging control slots; DecisionSample
	// holds the first few in slot order.
	DecisionDiffs  int             `json:"decision_diffs"`
	DecisionSample []DecisionDelta `json:"decision_sample,omitempty"`
}

// decisionSampleCap bounds the decision records embedded in a
// Comparison; the count is always exact.
const decisionSampleCap = 20

// Compare builds the cross-run report for two registry run IDs. The
// decision traces are read from each run's capture directory on demand;
// a capture recorded without decisions compares as an empty trace.
func (r *Registry) Compare(aID, bID string, tol float64) (Comparison, error) {
	a, ok := r.Find(aID)
	if !ok {
		return Comparison{}, fmt.Errorf("registry: unknown run %q", aID)
	}
	b, ok := r.Find(bID)
	if !ok {
		return Comparison{}, fmt.Errorf("registry: unknown run %q", bID)
	}
	if a.Key == "" || b.Key == "" {
		return Comparison{}, fmt.Errorf("registry: cannot compare an in-flight capture placeholder")
	}
	cmp := Comparison{
		A:          a,
		B:          b,
		SameConfig: a.Key == b.Key,
		Identical:  a.Key == b.Key && a.Fingerprint == b.Fingerprint,
	}
	cmp.MetricDeltas = metricDeltas(a.Summary.Metrics, b.Summary.Metrics)

	aj, err := json.Marshal(a.Summary)
	if err != nil {
		return Comparison{}, fmt.Errorf("registry: marshal summary: %w", err)
	}
	bj, err := json.Marshal(b.Summary)
	if err != nil {
		return Comparison{}, fmt.Errorf("registry: marshal summary: %w", err)
	}
	cmp.SummaryDiffs = obs.DiffJSON(aj, bj, tol, nil)

	da, err := loadDecisions(filepath.Join(r.root, a.Capture), a.Key)
	if err != nil {
		return Comparison{}, err
	}
	db, err := loadDecisions(filepath.Join(r.root, b.Capture), b.Key)
	if err != nil {
		return Comparison{}, err
	}
	diffs := obs.DiffDecisions(da, db, tol)
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Slot < diffs[j].Slot })
	cmp.DecisionDiffs = len(diffs)
	for i, d := range diffs {
		if i == decisionSampleCap {
			break
		}
		dd := DecisionDelta{Slot: d.Slot, Why: d.Why}
		if d.A.Slot != 0 {
			ra := d.A
			dd.A = &ra
		}
		if d.B.Slot != 0 {
			rb := d.B
			dd.B = &rb
		}
		cmp.DecisionSample = append(cmp.DecisionSample, dd)
	}
	return cmp, nil
}

// metricDeltas reports every metric key whose value differs between the
// two maps (a key missing from one side counts as differing from zero).
func metricDeltas(a, b map[string]float64) []MetricDelta {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []MetricDelta
	for _, k := range names {
		va, vb := a[k], b[k]
		if va == vb {
			continue
		}
		out = append(out, MetricDelta{Name: k, A: va, B: vb, Delta: vb - va})
	}
	return out
}

// loadDecisions reads dir/decisions.jsonl filtered to one run key, with
// the Run label cleared so traces from different configurations align by
// slot in DiffDecisions. An absent file is an empty trace.
func loadDecisions(dir, key string) ([]obs.DecisionRecord, error) {
	f, err := os.Open(filepath.Join(dir, "decisions.jsonl"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	defer f.Close()
	recs, err := obs.ReadJSONL[obs.DecisionRecord](f)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", dir, err)
	}
	var out []obs.DecisionRecord
	for _, rec := range recs {
		if rec.Run == key {
			rec.Run = ""
			out = append(out, rec)
		}
	}
	return out, nil
}

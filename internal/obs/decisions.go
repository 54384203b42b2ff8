package obs

import (
	"fmt"
	"sync"
)

// DecisionRecord is one hControl slot, end to end: the sensor/forecast
// inputs the controller saw, how it classified the slot, what the scheme
// decided, and (once the slot closed) the observed outcome. Every scheme
// choice is replayable from this record alone.
type DecisionRecord struct {
	// Slot is the 1-based slot ordinal (matches Controller.SlotCount at
	// plan time).
	Slot int `json:"slot"`
	// Seconds is the simulation time of the slot start.
	Seconds float64 `json:"t"`
	// Scheme names the deciding scheme.
	Scheme string `json:"scheme,omitempty"`

	// --- SlotView inputs ---

	// SCFrac and BAFrac are the (possibly noise-perturbed) availability
	// fractions the controller planned on.
	SCFrac float64 `json:"sc_frac"`
	BAFrac float64 `json:"ba_frac"`
	// SCAvailWh and BAAvailWh are the corresponding absolute energies.
	SCAvailWh float64 `json:"sc_avail_wh"`
	BAAvailWh float64 `json:"ba_avail_wh"`
	// BudgetW is the provisioned utility power defended this slot.
	BudgetW float64 `json:"budget_w"`

	// --- Forecast outputs and classification ---

	PredictedPeakW   float64 `json:"pred_peak_w"`
	PredictedValleyW float64 `json:"pred_valley_w"`
	PredictedPMW     float64 `json:"pred_pm_w"`
	PredictedOverW   float64 `json:"pred_over_w"`
	// SmallPeak is the small/large classification (true → SC-first).
	SmallPeak bool `json:"small_peak"`

	// --- Decision ---

	// Mode is the chosen dispatch mode name.
	Mode string `json:"mode"`
	// Ratio is the chosen R_λ (meaningful for split mode).
	Ratio float64 `json:"ratio"`
	// PATLookups and PATMisses are the table accesses this plan cost
	// (zero for table-free schemes).
	PATLookups int `json:"pat_lookups,omitempty"`
	PATMisses  int `json:"pat_misses,omitempty"`

	// --- FinishSlot feedback ---

	// Completed is false only for a trailing slot the run ended inside.
	Completed     bool    `json:"completed"`
	ActualPeakW   float64 `json:"actual_peak_w,omitempty"`
	ActualValleyW float64 `json:"actual_valley_w,omitempty"`
	ActualPMW     float64 `json:"actual_pm_w,omitempty"`
	ActualOverW   float64 `json:"actual_over_w,omitempty"`
	SCFracEnd     float64 `json:"sc_frac_end,omitempty"`
	BAFracEnd     float64 `json:"ba_frac_end,omitempty"`
	RatioUsed     float64 `json:"ratio_used,omitempty"`

	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
}

// DecisionLog collects decision records in slot order. Safe for
// concurrent use.
type DecisionLog struct {
	mu      sync.Mutex
	records []DecisionRecord
}

// NewDecisionLog builds an empty log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{} }

// Append stores one record.
func (l *DecisionLog) Append(r DecisionRecord) {
	l.mu.Lock()
	l.records = append(l.records, r)
	l.mu.Unlock()
}

// Len returns the number of stored records.
func (l *DecisionLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records returns a copy of the stored records in append order.
func (l *DecisionLog) Records() []DecisionRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]DecisionRecord(nil), l.records...)
}

// DecisionDiff is one slot where two traces disagree on the decision.
type DecisionDiff struct {
	Slot int
	A, B DecisionRecord
	// Why summarizes the first observed disagreement.
	Why string
}

// DiffDecisions aligns two traces by (Run, Slot) and reports the slots
// where the chosen decisions diverge — different mode, classification, or
// a ratio gap above tol. Slots present in only one trace are reported
// too. This is the substrate of the EXPERIMENTS.md "explain a scheme
// divergence" recipe.
func DiffDecisions(a, b []DecisionRecord, tol float64) []DecisionDiff {
	type key struct {
		run  string
		slot int
	}
	bi := make(map[key]DecisionRecord, len(b))
	for _, r := range b {
		bi[key{r.Run, r.Slot}] = r
	}
	var out []DecisionDiff
	seen := make(map[key]bool, len(a))
	for _, ra := range a {
		k := key{ra.Run, ra.Slot}
		seen[k] = true
		rb, ok := bi[k]
		if !ok {
			out = append(out, DecisionDiff{Slot: ra.Slot, A: ra, Why: "slot missing from B"})
			continue
		}
		switch {
		case ra.Mode != rb.Mode:
			out = append(out, DecisionDiff{Slot: ra.Slot, A: ra, B: rb,
				Why: fmt.Sprintf("mode %s vs %s", ra.Mode, rb.Mode)})
		case ra.SmallPeak != rb.SmallPeak:
			out = append(out, DecisionDiff{Slot: ra.Slot, A: ra, B: rb,
				Why: fmt.Sprintf("classification small_peak=%v vs %v", ra.SmallPeak, rb.SmallPeak)})
		case abs(ra.Ratio-rb.Ratio) > tol:
			out = append(out, DecisionDiff{Slot: ra.Slot, A: ra, B: rb,
				Why: fmt.Sprintf("ratio %.4f vs %.4f", ra.Ratio, rb.Ratio)})
		}
	}
	for _, rb := range b {
		k := key{rb.Run, rb.Slot}
		if !seen[k] {
			out = append(out, DecisionDiff{Slot: rb.Slot, B: rb, Why: "slot missing from A"})
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

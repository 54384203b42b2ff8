package obs

import (
	"fmt"
	"math"

	"heb/internal/obs/alerts"
)

// The auditor runs under the invariant checker's shared modes; these
// names spell the audit side of alerts.Mode.
const (
	AuditModeOff    = alerts.ModeOff
	AuditModeReport = alerts.ModeReport
	AuditModeStrict = alerts.ModeStrict
)

// AuditEvent is one typed violation the auditor observed.
type AuditEvent struct {
	// Seconds is the simulation time of the finding.
	Seconds float64 `json:"t"`
	// Kind classifies the violation (an audit kind of alerts.Kind).
	Kind alerts.Kind `json:"kind"`
	// Device names the offending device, empty for bus/fabric findings.
	Device string `json:"device,omitempty"`
	// Value and Limit quantify the violation (e.g. drift and tolerance).
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// Detail is free-form context.
	Detail string `json:"detail,omitempty"`
}

// DeviceResidual is one device's run-long energy ledger residual:
// In − Out − Loss − ΔStored at the device terminals, in watt-hours. The
// residual is informational, not gated: stored energy is valued at the
// moving open-circuit voltage, so revaluation keeps it from closing to
// zero even in a correct model.
type DeviceResidual struct {
	Device     string  `json:"device"`
	InWh       float64 `json:"in_wh"`
	OutWh      float64 `json:"out_wh"`
	LossWh     float64 `json:"loss_wh"`
	DeltaWh    float64 `json:"delta_wh"`
	ResidualWh float64 `json:"residual_wh"`
}

// auditEventCap bounds the stored violation events per run; overflow is
// counted in AuditReport.Violations but not stored.
const auditEventCap = 32

// Auditor accumulates the per-step energy-conservation ledger of one run
// and collects typed violations; the invariant checker (sim.Checker)
// feeds it. It is not safe for concurrent use; each run owns its own
// auditor.
type Auditor struct {
	mode alerts.Mode

	steps       int64
	inWh, outWh float64
	maxStepWh   float64 // largest single-step |in-out| seen

	violations int64
	events     []AuditEvent
	violated   bool

	devices []DeviceResidual
}

// NewAuditor builds an auditor for mode, holding the run to
// alerts.LedgerTolerance. A nil auditor is valid and disabled.
func NewAuditor(mode alerts.Mode) *Auditor {
	if mode == alerts.ModeOff {
		return nil
	}
	return &Auditor{mode: mode}
}

// Strict reports whether the auditor wants fail-fast behaviour.
func (a *Auditor) Strict() bool { return a != nil && a.mode == AuditModeStrict }

// Violated reports whether any check has failed so far; in strict mode the
// engine stops stepping once this turns true.
func (a *Auditor) Violated() bool { return a != nil && a.violated }

// RecordStep feeds one step's bus ledger: inWh is the energy entering the
// bus boundary this step, outWh the energy leaving it (load, charge,
// modeled losses, spill). Per-step mismatch beyond tolerance (relative to
// the step's magnitude, with an absolute floor) is flagged as drift.
func (a *Auditor) RecordStep(sec float64, inWh, outWh float64) {
	a.steps++
	a.inWh += inWh
	a.outWh += outWh
	diff := math.Abs(inWh - outWh)
	if diff > a.maxStepWh {
		a.maxStepWh = diff
	}
	scale := math.Max(math.Abs(inWh), math.Abs(outWh))
	// The absolute floor keeps idle steps (microwatt-hours of leakage)
	// from tripping on float noise.
	if diff > alerts.LedgerTolerance*scale && diff > 1e-9 {
		a.Flag(AuditEvent{
			Seconds: sec,
			Kind:    alerts.KindLedgerDrift,
			Value:   diff,
			Limit:   alerts.LedgerTolerance * scale,
			Detail:  fmt.Sprintf("in %.9g Wh, out %.9g Wh", inWh, outWh),
		})
	}
}

// Flag records one violation event, deduplicating storage past the cap.
func (a *Auditor) Flag(e AuditEvent) {
	a.violated = true
	a.violations++
	if len(a.events) < auditEventCap {
		a.events = append(a.events, e)
	}
}

// StartDevice opens a device's run-long terminal ledger with its starting
// cumulative stats and stored energy (all watt-hours); devices are
// indexed in StartDevice order.
func (a *Auditor) StartDevice(device string, inWh, outWh, lossWh, storedWh float64) {
	a.devices = append(a.devices, DeviceResidual{
		Device:  device,
		InWh:    -inWh,
		OutWh:   -outWh,
		LossWh:  -lossWh,
		DeltaWh: -storedWh,
	})
}

// EndDevice closes device i's ledger with its final cumulative stats and
// stored energy; the residual becomes In − Out − Loss − ΔStored.
func (a *Auditor) EndDevice(i int, inWh, outWh, lossWh, storedWh float64) {
	d := &a.devices[i]
	d.InWh += inWh
	d.OutWh += outWh
	d.LossWh += lossWh
	d.DeltaWh += storedWh
	d.ResidualWh = d.InWh - d.OutWh - d.LossWh - d.DeltaWh
}

// AuditReport is the end-of-run verdict of one auditor.
type AuditReport struct {
	// Mode the audit ran in.
	Mode string `json:"mode"`
	// Steps is how many steps fed the ledger.
	Steps int64 `json:"steps"`
	// EnergyInWh and EnergyOutWh are the run totals over the bus boundary.
	EnergyInWh  float64 `json:"in_wh"`
	EnergyOutWh float64 `json:"out_wh"`
	// DriftWh is the accumulated signed ledger drift (in − out).
	DriftWh float64 `json:"drift_wh"`
	// RelDrift is |DriftWh| relative to the larger run total.
	RelDrift float64 `json:"rel_drift"`
	// MaxStepWh is the largest single-step absolute mismatch.
	MaxStepWh float64 `json:"max_step_wh"`
	// Tolerance is the relative drift limit the run was held to.
	Tolerance float64 `json:"tolerance"`
	// Violations counts every flagged event, including ones past the
	// storage cap.
	Violations int64 `json:"violations"`
	// Events holds the first stored violations (capped).
	Events []AuditEvent `json:"events,omitempty"`
	// Devices holds the informational per-device terminal residuals.
	Devices []DeviceResidual `json:"devices,omitempty"`
	// Passed is true when no violation fired and the run-long relative
	// drift is within tolerance.
	Passed bool `json:"passed"`
	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
}

// Report closes the audit and returns the verdict. Safe on a nil auditor
// (returns a zero report marked passed with mode off).
func (a *Auditor) Report() AuditReport {
	if a == nil {
		return AuditReport{Mode: alerts.ModeOff.String(), Passed: true}
	}
	r := AuditReport{
		Mode:        a.mode.String(),
		Steps:       a.steps,
		EnergyInWh:  a.inWh,
		EnergyOutWh: a.outWh,
		DriftWh:     a.inWh - a.outWh,
		MaxStepWh:   a.maxStepWh,
		Tolerance:   alerts.LedgerTolerance,
		Violations:  a.violations,
		Events:      append([]AuditEvent(nil), a.events...),
		Devices:     append([]DeviceResidual(nil), a.devices...),
	}
	if scale := math.Max(math.Abs(a.inWh), math.Abs(a.outWh)); scale > 0 {
		r.RelDrift = math.Abs(r.DriftWh) / scale
	}
	r.Passed = !a.violated && r.RelDrift <= alerts.LedgerTolerance
	return r
}

// WithRun returns the report labeled with its run key.
func (r AuditReport) WithRun(run string) AuditReport {
	r.Run = run
	return r
}

// OK reports whether the audit passed.
func (r AuditReport) OK() bool { return r.Passed }

// Summary renders a one-line human verdict.
func (r AuditReport) Summary() string {
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	return fmt.Sprintf("audit %s: %s steps=%d in=%.3fWh out=%.3fWh drift=%.3gWh rel=%.3g violations=%d",
		verdict, r.Mode, r.Steps, r.EnergyInWh, r.EnergyOutWh, r.DriftWh, r.RelDrift, r.Violations)
}

// AuditLog collects per-run audit reports across a sweep.
type AuditLog = alerts.Log[AuditReport]

// NewAuditLog builds an empty collector.
func NewAuditLog() *AuditLog { return &AuditLog{} }

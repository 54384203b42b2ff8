// Package alerts holds the run invariant checker's shared vocabulary —
// the Mode both of its artifacts run under, the Kind taxonomy of every
// finding, and the per-run Log collector — plus its rule engine. The
// checker itself (sim.Checker) feeds two components from one pass per
// step: the energy auditor (obs.Auditor, audits.jsonl) checks
// conservation and physical bounds — invariants of the *model* — and the
// rule engine here checks the *operational* envelope the paper promises:
// state-of-charge floors, depth-of-discharge budgets, relay exclusivity,
// bounded mismatch windows, bus-ledger integrity, battery wear rate, bus
// ramp rate and checkpoint-chain continuity.
//
// Each rule has a fixed severity (warn or critical), a debounce (how
// many consecutive violating observations arm it) and a hysteresis (how
// many clean observations re-arm it after firing), so a rule fires once
// per excursion instead of once per step. Fired alerts become typed
// events (alerts.jsonl in captures, EventAlert on the engine's event
// log) and roll up into a per-run Report whose Health verdict — ok,
// warn or critical — is stamped into the capture manifest.
//
// The package is deliberately self-contained (no internal/obs import)
// so both the sim engine and the obs capture layer can depend on it
// without a cycle.
package alerts

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Mode selects how one checker component (the auditor or the rule
// engine) participates in a run.
type Mode uint8

const (
	// ModeOff disables the component entirely; the nil-check fast path
	// allocates nothing.
	ModeOff Mode = iota
	// ModeReport runs every check and records the findings without
	// affecting the run.
	ModeReport
	// ModeStrict additionally aborts the run once the component has
	// failed: any audit violation, any critical alert.
	ModeStrict
)

// String names the mode as the -audit and -alerts flags spell it.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeReport:
		return "report"
	case ModeStrict:
		return "strict"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode inverts String.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "report":
		return ModeReport, nil
	case "strict":
		return ModeStrict, nil
	default:
		return ModeOff, fmt.Errorf("alerts: unknown mode %q (want off, report or strict)", s)
	}
}

// Severity ranks an alert.
type Severity uint8

const (
	// SeverityWarn marks a degradation worth surfacing.
	SeverityWarn Severity = iota
	// SeverityCritical marks a breach of a hard operational invariant.
	SeverityCritical

	numSeverities // sentinel
)

var severityNames = [numSeverities]string{"warn", "critical"}

// String names the severity as it appears in JSONL.
func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// ParseSeverity inverts String.
func ParseSeverity(s string) (Severity, error) {
	for i, name := range severityNames {
		if name == s {
			return Severity(i), nil
		}
	}
	return 0, fmt.Errorf("alerts: unknown severity %q", s)
}

// MarshalJSON encodes the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a string severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// Kind identifies one family of checker findings: an alert rule or an
// audit check. Ledger drift and relay exclusivity are both.
type Kind uint8

// The finding taxonomy. Severities are fixed per kind: structural breaks
// (empty buffer, relay fault, energy-ledger drift, broken checkpoint
// chain, physical bound) are critical; envelope excursions (ceiling,
// DoD, mismatch window, wear, ramp) are warnings.
const (
	// KindSoCFloor fires when a device's state of charge stays below the
	// configured floor — the buffer is effectively empty.
	KindSoCFloor Kind = iota
	// KindSoCCeiling fires when a device's state of charge exceeds the
	// configured ceiling — an overcharge past the usable window.
	KindSoCCeiling
	// KindDoDExcursion fires when a device's discharge swing (running
	// SoC maximum minus current SoC) exceeds the design depth of
	// discharge.
	KindDoDExcursion
	// KindRelayExclusivity fires when the relay positions stop
	// partitioning the servers.
	KindRelayExclusivity
	// KindMismatchWindow fires when one contiguous demand-above-supply
	// window outlasts the configured bound.
	KindMismatchWindow
	// KindLedgerDrift fires when the cumulative bus ledger's in/out
	// drift exceeds the configured relative tolerance.
	KindLedgerDrift
	// KindWearRate fires when the battery's equivalent-full-cycle rate
	// exceeds the configured cycles-per-day budget.
	KindWearRate
	// KindRampRate fires when the bus demand ramp exceeds the
	// configured watts-per-second envelope.
	KindRampRate
	// KindCheckpointChain fires when a checkpoint record's prev hash
	// does not extend the previously observed record.
	KindCheckpointChain
	// KindSoCBound, KindVoltageBound and KindChargeBound are audit-only
	// findings: a device state of charge outside [0, 1], an open-circuit
	// voltage outside its legal window, a charge well negative or above
	// chemical capacity.
	KindSoCBound
	KindVoltageBound
	KindChargeBound

	numKinds // sentinel
)

var kindNames = [numKinds]string{
	"soc_floor", "soc_ceiling", "dod_excursion", "relay_exclusivity",
	"mismatch_window", "ledger_drift", "wear_rate", "ramp_rate",
	"checkpoint_chain", "soc_bound", "voltage_bound", "charge_bound",
}

// kindSeverities fixes each rule family's severity.
var kindSeverities = [numKinds]Severity{
	KindSoCFloor:         SeverityCritical,
	KindSoCCeiling:       SeverityWarn,
	KindDoDExcursion:     SeverityWarn,
	KindRelayExclusivity: SeverityCritical,
	KindMismatchWindow:   SeverityWarn,
	KindLedgerDrift:      SeverityCritical,
	KindWearRate:         SeverityWarn,
	KindRampRate:         SeverityWarn,
	KindCheckpointChain:  SeverityCritical,
	KindSoCBound:         SeverityCritical,
	KindVoltageBound:     SeverityCritical,
	KindChargeBound:      SeverityCritical,
}

// structuralKinds fire on the first violating observation regardless of
// the configured debounce: a relay fault or a broken checkpoint chain is
// never sensor noise.
var structuralKinds = [numKinds]bool{
	KindRelayExclusivity: true,
	KindCheckpointChain:  true,
	KindWearRate:         true,
}

// String names the kind as it appears in JSONL.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	for i, name := range kindNames {
		if name == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("alerts: unknown alert kind %q", s)
}

// Severity returns the kind's fixed severity.
func (k Kind) Severity() Severity {
	if int(k) < len(kindSeverities) {
		return kindSeverities[k]
	}
	return SeverityWarn
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a string kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kind, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Event is one fired alert.
type Event struct {
	// Seconds is the simulation time the rule fired (debounce included).
	Seconds float64 `json:"t"`
	// Kind is the rule family.
	Kind Kind `json:"kind"`
	// Severity is the kind's fixed severity, denormalized for readers.
	Severity Severity `json:"severity"`
	// Device is the affected device ("battery/0"), empty for bus-level
	// rules.
	Device string `json:"device,omitempty"`
	// Value is the observed quantity, Limit the threshold it crossed.
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// Detail is free-form context.
	Detail string `json:"detail,omitempty"`
	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
}

// Rules configures the thresholds. The zero value of any field selects
// its default (see DefaultRules); a negative threshold disables that
// rule entirely.
type Rules struct {
	// SoCFloor is the critical state-of-charge floor.
	SoCFloor float64
	// SoCCeiling is the overcharge ceiling.
	SoCCeiling float64
	// DoDMax bounds the discharge swing below the running SoC maximum.
	DoDMax float64
	// MismatchWindowSeconds bounds one contiguous mismatch window.
	MismatchWindowSeconds float64
	// LedgerDriftRel bounds the cumulative bus ledger's relative drift.
	LedgerDriftRel float64
	// WearEFCPerDay bounds the battery's equivalent full cycles per
	// simulated day.
	WearEFCPerDay float64
	// RampWattsPerSecond bounds the per-step bus demand ramp.
	RampWattsPerSecond float64
	// DebounceSteps is how many consecutive violating observations arm
	// a non-structural rule (structural rules fire immediately).
	DebounceSteps int
	// HysteresisSteps is how many consecutive clean observations
	// re-arm a fired rule for the next excursion.
	HysteresisSteps int
}

// LedgerTolerance is the relative bus-ledger drift both checker
// components hold a run to: the auditor per step, the ledger_drift rule
// (by default) on the cumulative sums.
const LedgerTolerance = 1e-6

// DefaultRules returns the prototype's operational envelope: the
// battery must never run empty (SoC < 5%), never overcharge past the
// usable window, never swing deeper than 85% DoD, any one mismatch
// window must clear within 30 minutes (mismatch windows are the demand
// peaks the buffers are provisioned to shave, and the evaluation
// workloads' longest natural peaks run just under 20 minutes — a window
// past half an hour is sustained overload, not a peak), the bus ledger
// must hold LedgerTolerance, the batteries may cycle at most three
// equivalent full cycles per day, and the bus may ramp at most 250 W/s.
func DefaultRules() Rules {
	return Rules{
		SoCFloor:              0.05,
		SoCCeiling:            1.0,
		DoDMax:                0.85,
		MismatchWindowSeconds: 1800,
		LedgerDriftRel:        LedgerTolerance,
		WearEFCPerDay:         3,
		RampWattsPerSecond:    250,
		DebounceSteps:         5,
		HysteresisSteps:       60,
	}
}

// withDefaults fills zero fields from DefaultRules; negative thresholds
// pass through (they disable the rule).
func (r Rules) withDefaults() Rules {
	d := DefaultRules()
	if r.SoCFloor == 0 {
		r.SoCFloor = d.SoCFloor
	}
	if r.SoCCeiling == 0 {
		r.SoCCeiling = d.SoCCeiling
	}
	if r.DoDMax == 0 {
		r.DoDMax = d.DoDMax
	}
	if r.MismatchWindowSeconds == 0 {
		r.MismatchWindowSeconds = d.MismatchWindowSeconds
	}
	if r.LedgerDriftRel == 0 {
		r.LedgerDriftRel = d.LedgerDriftRel
	}
	if r.WearEFCPerDay == 0 {
		r.WearEFCPerDay = d.WearEFCPerDay
	}
	if r.RampWattsPerSecond == 0 {
		r.RampWattsPerSecond = d.RampWattsPerSecond
	}
	if r.DebounceSteps == 0 {
		r.DebounceSteps = d.DebounceSteps
	}
	if r.HysteresisSteps == 0 {
		r.HysteresisSteps = d.HysteresisSteps
	}
	return r
}

// EventCap bounds the stored events per engine; fired alerts past the
// cap are counted but not stored, so a pathological run cannot balloon
// its capture.
const EventCap = 256

// ruleState is one rule instance's debounce/hysteresis automaton.
type ruleState struct {
	over   int  // consecutive violating observations while armed
	clean  int  // consecutive clean observations while firing
	firing bool // fired and not yet re-armed
}

// deviceRules is one registered device's SoC rule instances plus its
// running SoC maximum for DoD swings.
type deviceRules struct {
	name                string
	floor, ceiling, dod ruleState
	top                 float64
	seen                bool
}

// Engine evaluates the rule set online. It is used by a single run from
// a single goroutine (the sim engine's), so it needs no locking; the
// thread-safe cross-run collector is Log. A nil *Engine disables
// alerting: every method is nil-safe and the sim engine's nil checks
// keep the hot loop allocation-free.
type Engine struct {
	mode  Mode
	rules Rules

	// Rule instances live in slices, never behind a map lookup: bus holds
	// the device-less rules by kind, devices the SoC rules of every
	// AddDevice registration.
	bus     [numKinds]ruleState
	devices []deviceRules

	mismatchSecs float64 // current contiguous mismatch window
	ledgerIn     float64 // cumulative bus Wh in
	ledgerOut    float64 // cumulative bus Wh out
	lastCkpt     string  // last observed checkpoint hash
	haveCkpt     bool

	events   []Event // stored fired alerts, capped at EventCap
	fired    []Event // unclaimed fired alerts (drained by TakeFired)
	counts   [numKinds]int
	warns    int
	crits    int
	overflow int
}

// NewEngine builds an alert engine for the mode, or nil for ModeOff
// (the nil engine is the documented "off" state). Zero-valued rule
// fields select defaults; negative thresholds disable their rule.
func NewEngine(mode Mode, rules Rules) *Engine {
	if mode == ModeOff {
		return nil
	}
	return &Engine{mode: mode, rules: rules.withDefaults()}
}

// AddDevice registers a device for the SoC floor, SoC ceiling and DoD
// rules and returns the index ObserveSoC takes for it.
func (a *Engine) AddDevice(name string) int {
	a.devices = append(a.devices, deviceRules{name: name})
	return len(a.devices) - 1
}

// Strict reports whether a critical alert should abort the run.
func (a *Engine) Strict() bool { return a != nil && a.mode == ModeStrict }

// Violated reports whether any critical alert has fired.
func (a *Engine) Violated() bool { return a != nil && a.crits > 0 }

// observe runs one rule instance's debounce/hysteresis automaton and
// fires at the arming threshold. It is small enough to inline, so the
// common case, a clean step on an idle rule, costs no call.
func (a *Engine) observe(st *ruleState, t float64, k Kind, device string,
	violating bool, value, limit float64, detail string) {
	if !violating && !st.firing {
		st.over = 0
		return
	}
	a.transition(st, t, k, device, violating, value, limit, detail)
}

// transition is observe on a breaching step or a firing rule.
func (a *Engine) transition(st *ruleState, t float64, k Kind, device string,
	violating bool, value, limit float64, detail string) {
	switch {
	case violating && st.firing:
		st.clean = 0
	case violating:
		st.clean = 0
		st.over++
		arm := a.rules.DebounceSteps
		if structuralKinds[k] {
			arm = 1
		}
		if st.over >= arm {
			st.firing = true
			st.over = 0
			a.fire(Event{
				Seconds: t, Kind: k, Severity: k.Severity(),
				Device: device, Value: value, Limit: limit, Detail: detail,
			})
		}
	default: // firing, clean step
		st.clean++
		if st.clean >= a.rules.HysteresisSteps {
			st.firing, st.over, st.clean = false, 0, 0
		}
	}
}

// fire records one alert.
func (a *Engine) fire(e Event) {
	a.counts[e.Kind]++
	if e.Severity == SeverityCritical {
		a.crits++
	} else {
		a.warns++
	}
	if len(a.events) < EventCap {
		a.events = append(a.events, e)
	} else {
		a.overflow++
	}
	a.fired = append(a.fired, e)
}

// ObserveSoC feeds the state of charge of device dev (an AddDevice
// index); it drives the SoC floor, SoC ceiling and DoD excursion rules.
func (a *Engine) ObserveSoC(t float64, dev int, soc float64) {
	if a == nil {
		return
	}
	r, d := &a.rules, &a.devices[dev]
	if r.SoCFloor >= 0 {
		a.observe(&d.floor, t, KindSoCFloor, d.name, soc < r.SoCFloor, soc, r.SoCFloor,
			"state of charge below floor")
	}
	if r.SoCCeiling >= 0 {
		a.observe(&d.ceiling, t, KindSoCCeiling, d.name, soc > r.SoCCeiling, soc, r.SoCCeiling,
			"state of charge above ceiling")
	}
	if r.DoDMax >= 0 {
		if !d.seen || soc > d.top {
			d.top, d.seen = soc, true
		}
		depth := d.top - soc
		a.observe(&d.dod, t, KindDoDExcursion, d.name, depth > r.DoDMax, depth, r.DoDMax,
			"discharge swing beyond design DoD")
	}
}

// ObserveMismatch feeds the step's mismatch state; it drives the
// mismatch-window rule by timing contiguous windows.
func (a *Engine) ObserveMismatch(t float64, inMismatch bool, stepSeconds float64) {
	if a == nil || a.rules.MismatchWindowSeconds < 0 {
		return
	}
	if inMismatch {
		a.mismatchSecs += stepSeconds
	} else {
		a.mismatchSecs = 0
	}
	a.observe(&a.bus[KindMismatchWindow], t, KindMismatchWindow, "",
		a.mismatchSecs > a.rules.MismatchWindowSeconds,
		a.mismatchSecs, a.rules.MismatchWindowSeconds, "mismatch window outlasted bound")
}

// ObserveLedger feeds the step's bus ledger (Wh in and out of the bus
// boundary); it drives the ledger-drift rule on the cumulative sums.
func (a *Engine) ObserveLedger(t float64, inWh, outWh float64) {
	if a == nil || a.rules.LedgerDriftRel < 0 {
		return
	}
	a.ledgerIn += inWh
	a.ledgerOut += outWh
	drift := math.Abs(a.ledgerIn - a.ledgerOut)
	scale := math.Max(math.Max(a.ledgerIn, a.ledgerOut), 1)
	rel := drift / scale
	a.observe(&a.bus[KindLedgerDrift], t, KindLedgerDrift, "",
		rel > a.rules.LedgerDriftRel && drift > 1e-9,
		rel, a.rules.LedgerDriftRel, "cumulative bus ledger drift")
}

// ObserveRamp feeds the step's absolute bus demand ramp in watts per
// second; it drives the ramp-rate envelope rule.
func (a *Engine) ObserveRamp(t float64, wattsPerSecond float64) {
	if a == nil || a.rules.RampWattsPerSecond < 0 {
		return
	}
	a.observe(&a.bus[KindRampRate], t, KindRampRate, "",
		wattsPerSecond > a.rules.RampWattsPerSecond,
		wattsPerSecond, a.rules.RampWattsPerSecond, "bus ramp outside envelope")
}

// ObserveRelays feeds the step's relay partition check.
func (a *Engine) ObserveRelays(t float64, exclusive bool, total, servers int) {
	if a == nil {
		return
	}
	a.observe(&a.bus[KindRelayExclusivity], t, KindRelayExclusivity, "",
		!exclusive, float64(total), float64(servers),
		"relay positions do not partition the servers")
}

// ObserveWear feeds the battery pool's equivalent-full-cycle rate
// (cycles per simulated day), once at end of run.
func (a *Engine) ObserveWear(t float64, device string, efcPerDay float64) {
	if a == nil || a.rules.WearEFCPerDay < 0 {
		return
	}
	a.observe(&a.bus[KindWearRate], t, KindWearRate, device,
		efcPerDay > a.rules.WearEFCPerDay,
		efcPerDay, a.rules.WearEFCPerDay, "battery wear rate above budget")
}

// ObserveCheckpoint feeds each checkpoint record's chain links; it
// fires when a record does not extend the previously observed one.
func (a *Engine) ObserveCheckpoint(t float64, prev, hash string) {
	if a == nil {
		return
	}
	if a.haveCkpt {
		a.observe(&a.bus[KindCheckpointChain], t, KindCheckpointChain, "", prev != a.lastCkpt, 0, 0,
			"checkpoint does not extend the recorded chain")
	}
	a.lastCkpt, a.haveCkpt = hash, true
}

// TakeFired drains the alerts fired since the previous call — the sim
// engine's bridge onto its event log.
func (a *Engine) TakeFired() []Event {
	if a == nil || len(a.fired) == 0 {
		return nil
	}
	f := a.fired
	a.fired = nil
	return f
}

// Events returns the stored fired alerts (capped; see Report.Overflow).
func (a *Engine) Events() []Event {
	if a == nil {
		return nil
	}
	return append([]Event(nil), a.events...)
}

// Health verdicts.
const (
	HealthOK       = "ok"
	HealthWarn     = "warn"
	HealthCritical = "critical"
)

// HealthFor derives the verdict from fired counts.
func HealthFor(warnings, criticals int) string {
	switch {
	case criticals > 0:
		return HealthCritical
	case warnings > 0:
		return HealthWarn
	default:
		return HealthOK
	}
}

// Report is one run's alert summary.
type Report struct {
	// Mode is the engine mode the run used.
	Mode string `json:"mode"`
	// Events counts every fired alert (stored or overflowed).
	Events int `json:"events"`
	// Overflow counts fired alerts past the storage cap.
	Overflow int `json:"overflow,omitempty"`
	// Warnings and Criticals split the fired alerts by severity.
	Warnings  int `json:"warnings"`
	Criticals int `json:"criticals"`
	// Counts breaks fired alerts down by rule kind (non-zero only).
	Counts map[string]int `json:"counts,omitempty"`
	// Health is the verdict: ok, warn or critical.
	Health string `json:"health"`
	// Run labels the originating run in multi-run collectors.
	Run string `json:"run,omitempty"`
}

// Report summarizes the engine's firing state.
func (a *Engine) Report() Report {
	if a == nil {
		return Report{Mode: ModeOff.String(), Health: HealthOK}
	}
	r := Report{
		Mode:      a.mode.String(),
		Events:    a.warns + a.crits,
		Overflow:  a.overflow,
		Warnings:  a.warns,
		Criticals: a.crits,
		Health:    HealthFor(a.warns, a.crits),
	}
	for k, n := range a.counts {
		if n > 0 {
			if r.Counts == nil {
				r.Counts = map[string]int{}
			}
			r.Counts[Kind(k).String()] = n
		}
	}
	return r
}

// WithRun returns the report labeled with its run key.
func (r Report) WithRun(run string) Report {
	r.Run = run
	return r
}

// OK reports whether the run's health verdict is ok.
func (r Report) OK() bool { return r.Health == HealthOK }

// Summary renders the report one-line.
func (r Report) Summary() string {
	return fmt.Sprintf("health=%s: %d warnings, %d criticals over %d fired alerts",
		r.Health, r.Warnings, r.Criticals, r.Events)
}

// Verdict is a per-run report a Log collects.
type Verdict[R any] interface {
	// WithRun returns the report labeled with its run key.
	WithRun(run string) R
	// OK reports whether the run came through its checks clean.
	OK() bool
}

// Log collects per-run reports from a (possibly parallel) sweep and
// returns them sorted by run key, so its output is deterministic for any
// worker count. It is safe for concurrent use, and a nil Log discards.
// Each checker artifact has one: Log[Report] for the rule engine,
// obs.AuditLog for the auditor.
type Log[R Verdict[R]] struct {
	mu      sync.Mutex
	entries []logEntry[R]
}

type logEntry[R any] struct {
	run    string
	report R
}

// NewLog builds an empty rule-engine report collector.
func NewLog() *Log[Report] { return &Log[Report]{} }

// Add records one run's report, labeled with its key.
func (l *Log[R]) Add(run string, r R) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = append(l.entries, logEntry[R]{run, r.WithRun(run)})
	l.mu.Unlock()
}

// Reports returns every report sorted by run key.
func (l *Log[R]) Reports() []R {
	l.mu.Lock()
	entries := slices.Clone(l.entries)
	l.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].run < entries[j].run })
	out := make([]R, len(entries))
	for i, e := range entries {
		out[i] = e.report
	}
	return out
}

// Unhealthy returns the reports that are not OK, sorted by run key.
func (l *Log[R]) Unhealthy() []R {
	var bad []R
	for _, r := range l.Reports() {
		if !r.OK() {
			bad = append(bad, r)
		}
	}
	return bad
}

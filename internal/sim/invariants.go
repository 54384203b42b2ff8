package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/power"
	"heb/internal/units"
)

// Checker is one run's invariant checker and device recorder. It owns
// the bus ledger and the per-device and relay checks, and feeds its three
// components — the energy auditor (audits.jsonl), the alert rule engine
// (alerts.jsonl, bridged onto Events as EventAlert) and the probe
// recorder (probes.jsonl) — from a single pass per step: one snapshot
// per distinct probed device (a uniform pool's members share member 0's),
// one ledger delta from the pools' bus meters, one relay partition count.
// Off probe steps a snapshot holds only the fields the bounds and SoC
// checks read. With only the probe recorder on, the ledger and relay
// checks are skipped and devices are snapshotted on probe steps alone.
//
// The strict rule: a component in strict mode turns its failure into an
// aborted run — any audit violation for the auditor, any critical alert
// for the rule engine. The engine stops at the end of the first step on
// which a strict component has failed, and Err reports every failed
// strict component once the run is over.
//
// A Checker serves exactly one run; it is driven from the engine
// goroutine and needs no locking.
type Checker struct {
	audit  *obs.Auditor
	alert  *alerts.Engine
	probes *obs.ProbeRecorder
	every  int // probe decimation in steps

	targets      []probeTarget // the engine's probed devices
	ledger       ledgerState   // previous step's cumulative readings
	mismatchPrev int           // mismatchSteps at the previous step
	prevDemand   float64       // the previous step's total demand (ramp rule)
	stepSec      float64       // the engine step in seconds
}

// NewChecker composes the run's checker from its components, any of
// which may be nil (off); it returns nil when all are. probes samples
// every probed device each every steps (<= 0 selects 60: one sample per
// simulated minute at the 1 s step).
func NewChecker(audit *obs.Auditor, alert *alerts.Engine, probes *obs.ProbeRecorder, every int) *Checker {
	if audit == nil && alert == nil && probes == nil {
		return nil
	}
	if every <= 0 {
		every = 60
	}
	return &Checker{audit: audit, alert: alert, probes: probes, every: every}
}

// Err is the strict verdict of a finished run: nil unless a strict
// component failed. A nil checker never fails.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	var errs []error
	if c.audit.Strict() {
		if r := c.audit.Report(); !r.Passed {
			errs = append(errs, fmt.Errorf("energy audit failed: %s", r.Summary()))
		}
	}
	if c.alert.Strict() && c.alert.Violated() {
		errs = append(errs, fmt.Errorf("alert SLOs failed: %s", c.alert.Report().Summary()))
	}
	return errors.Join(errs...)
}

// abort applies the strict rule after a step.
func (c *Checker) abort() bool {
	return c.audit.Strict() && c.audit.Violated() || c.alert.Strict() && c.alert.Violated()
}

// ledgerState holds the cumulative bus readings the next step's ledger
// is measured against.
type ledgerState struct {
	utilityDrawn units.Energy // e.utilityDrawn
	meterUtility units.Energy // fabric meter utility credit
	served       units.Energy // e.servedBA + e.servedSC
	devIn        units.Energy // sum of device Stats().EnergyIn
	devOut       units.Energy // sum of device Stats().EnergyOut
	convLoss     units.Energy // discharge + utility converter losses
}

// readLedger takes the engine's cumulative bus readings.
func readLedger(e *Engine) ledgerState {
	devIn, devOut := e.cfg.Battery.Meters()
	if e.cfg.Supercap != nil {
		in, out := e.cfg.Supercap.Meters()
		devIn += in
		devOut += out
	}
	return ledgerState{
		utilityDrawn: e.utilityDrawn,
		meterUtility: e.fabric.Meter().Utility,
		served:       e.servedBA + e.servedSC,
		devIn:        devIn,
		devOut:       devOut,
		convLoss:     e.dischargeConv.Loss() + e.utilityConv.Loss(),
	}
}

// start binds the checker to the run: ledger baselines, the devices'
// run-long audit ledgers, one rule slot per probed device and probe
// rings sized for the run's samples.
func (c *Checker) start(e *Engine) {
	if c.probes != nil {
		// Steps 0, every, 2*every, ... of the run are probed.
		steps := int(e.cfg.Duration / e.cfg.Step)
		c.probes.Expect((steps + c.every - 1) / c.every)
	}
	c.targets = e.probeTargets
	c.ledger = readLedger(e)
	c.mismatchPrev = e.mismatchSteps
	c.stepSec = e.cfg.Step.Seconds()
	for j := range c.targets {
		t := &c.targets[j]
		if c.audit != nil {
			s := t.read(true)
			c.audit.StartDevice(t.name, s.EnergyInWh, s.EnergyOutWh, s.LossWh, s.StoredWh)
		}
		if c.alert != nil {
			c.alert.AddDevice(t.name)
		}
	}
}

// step checks and records executed step i. The bus boundary sits
// between the sources (utility feed, discharging devices) and the sinks
// (server load as metered, charging devices, modeled conversion losses):
//
//	in  = Δutility drawn + Δdevice discharge (terminal side)
//	out = Δutility load credit + Δbuffer-served load + Δdevice charge
//	      + Δconverter losses
//
// Every engine path balances these exactly, so the tolerance only
// absorbs float summation error — any modeling bug that creates or
// destroys energy at the bus shows up as drift.
func (c *Checker) step(e *Engine, i int, now time.Duration) {
	sec := now.Seconds()
	checks := c.audit != nil || c.alert != nil
	probe := c.probes != nil && i%c.every == 0
	if !checks && !probe {
		return
	}
	var inWh, outWh float64
	if checks {
		cur, prev := readLedger(e), c.ledger
		c.ledger = cur
		inWh = ((cur.utilityDrawn - prev.utilityDrawn) + (cur.devOut - prev.devOut)).Wh()
		outWh = ((cur.meterUtility - prev.meterUtility) + (cur.served - prev.served) +
			(cur.devIn - prev.devIn) + (cur.convLoss - prev.convLoss)).Wh()
		if c.audit != nil {
			c.audit.RecordStep(sec, inWh, outWh)
		}
	}
	for j := range c.targets {
		t := &c.targets[j]
		if !probe && c.audit == nil && !t.battery {
			continue // the alert rules read battery snapshots alone
		}
		s := c.snapshot(j, probe)
		if c.audit != nil {
			c.checkBounds(sec, t.name, s)
		}
		// Charge-protection SLOs scope to batteries: supercaps sweep their
		// full usable window by design, so floor/DoD breaches there are
		// normal operation, not faults.
		if t.battery {
			c.alert.ObserveSoC(sec, j, s.SoC)
		}
		if probe {
			c.probes.Record(t.name, sec, s.SoC, s.VoltageV, s.AvailAh, s.BoundAh, s.ThroughputAh, s.NetOutWh())
		}
	}
	if !checks {
		return
	}
	// Relay exclusivity: every server's relay sits in exactly one
	// position, so the per-source counts partition the fleet and the off
	// count matches the fabric's shed accounting.
	counts := e.fabric.SourceCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	servers, offline := e.fabric.NumServers(), e.fabric.Count(power.SourceOff)
	if c.audit != nil {
		if total != servers {
			c.audit.Flag(obs.AuditEvent{Seconds: sec, Kind: alerts.KindRelayExclusivity,
				Value: float64(total), Limit: float64(servers),
				Detail: "relay positions do not partition the servers"})
		}
		if counts[power.SourceOff] != offline {
			c.audit.Flag(obs.AuditEvent{Seconds: sec, Kind: alerts.KindRelayExclusivity,
				Value: float64(counts[power.SourceOff]), Limit: float64(offline),
				Detail: "off-relay count disagrees with shed accounting"})
		}
	}
	if c.alert != nil {
		c.alert.ObserveMismatch(sec, e.mismatchSteps > c.mismatchPrev, c.stepSec)
		c.alert.ObserveLedger(sec, inWh, outWh)
		d := float64(e.demand)
		if e.steps >= 2 {
			c.alert.ObserveRamp(sec, math.Abs(d-c.prevDemand)/c.stepSec)
		}
		c.prevDemand = d
		c.alert.ObserveRelays(sec, total == servers && counts[power.SourceOff] == offline, total, servers)
		c.emitAlerts(e)
	}
	c.mismatchPrev = e.mismatchSteps
}

// snapshot reads target j for this step, full or bounds fields only.
// Each distinct device is read once: while a pool is uniform, members
// 1..n-1 return member 0's snapshot, read earlier in the same pass —
// what Pool.ProbeMemberInto writes for them.
func (c *Checker) snapshot(j int, full bool) *esd.ProbeSnapshot {
	t := &c.targets[j]
	if t.idx > 0 && t.pool.Uniform() {
		return &c.targets[t.first].snap
	}
	return t.read(full)
}

// checkBounds holds one probed device to its physical envelope: state of
// charge inside [0,1], raw charge wells non-negative and within chemical
// capacity, open-circuit voltage inside its legal window.
func (c *Checker) checkBounds(sec float64, device string, s *esd.ProbeSnapshot) {
	a := c.audit
	if s.SoC < 0 || s.SoC > 1 {
		a.Flag(obs.AuditEvent{Seconds: sec, Kind: alerts.KindSoCBound, Device: device,
			Value: s.SoC, Limit: 1, Detail: "state of charge outside [0,1]"})
	}
	// Absolute slack for well roundoff: a few nano-amp-hours.
	const slackAh = 1e-9
	if s.AvailAh < -slackAh || s.BoundAh < -slackAh {
		a.Flag(obs.AuditEvent{Seconds: sec, Kind: alerts.KindChargeBound, Device: device,
			Value: math.Min(s.AvailAh, s.BoundAh), Limit: 0, Detail: "negative charge well"})
	}
	if s.CapacityAh > 0 && s.AvailAh+s.BoundAh > s.CapacityAh*(1+1e-9)+slackAh {
		a.Flag(obs.AuditEvent{Seconds: sec, Kind: alerts.KindChargeBound, Device: device,
			Value: s.AvailAh + s.BoundAh, Limit: s.CapacityAh, Detail: "stored charge above capacity"})
	}
	const slackV = 1e-9
	if s.VMaxV > s.VMinV && (s.VoltageV < s.VMinV-slackV || s.VoltageV > s.VMaxV+slackV) {
		a.Flag(obs.AuditEvent{Seconds: sec, Kind: alerts.KindVoltageBound, Device: device,
			Value: s.VoltageV, Limit: s.VMaxV, Detail: "open-circuit voltage outside window"})
	}
}

// finish closes the devices' audit ledgers, runs the end-of-run battery
// wear-rate rule and drains any still-queued alerts.
func (c *Checker) finish(e *Engine) {
	if c.audit != nil {
		for i := range c.targets {
			s := c.targets[i].read(true)
			c.audit.EndDevice(i, s.EnergyInWh, s.EnergyOutWh, s.LossWh, s.StoredWh)
		}
	}
	if c.alert == nil {
		return
	}
	sec := float64(e.steps) * c.stepSec
	if days := sec / 86400; days > 0 {
		if report, n := e.cfg.Battery.Wear(); n > 0 {
			c.alert.ObserveWear(sec, "battery", report.EquivalentFullCycles/days)
		}
	}
	c.emitAlerts(e)
}

// emitAlerts drains newly fired alerts into the event log as EventAlert;
// with no event sink the queue is still drained so it cannot grow.
func (c *Checker) emitAlerts(e *Engine) {
	fired := c.alert.TakeFired()
	if len(fired) == 0 || e.cfg.Events == nil {
		return
	}
	for _, a := range fired {
		detail := a.Kind.String() + "/" + a.Severity.String()
		if a.Device != "" {
			detail += " @" + a.Device
		}
		e.cfg.Events.Emit(obs.Event{
			Seconds: a.Seconds, Kind: obs.EventAlert, Server: -1,
			Watts: a.Value, Detail: detail,
		})
	}
}

package esd

import (
	"fmt"
	"math"
	"time"

	"heb/internal/units"
)

// SupercapConfig parameterizes a super-capacitor bank. The defaults model
// the paper's Maxwell 16 V / 600 F modules arranged as a 32 V string
// (two modules in series), usable down to the converter's minimum input.
type SupercapConfig struct {
	// Capacitance is the bank capacitance in farads.
	Capacitance float64
	// VMax is the full-charge voltage.
	VMax units.Voltage
	// VMin is the minimum usable voltage (DC/DC converter dropout); the
	// energy below ½C·VMin² is stranded.
	VMin units.Voltage
	// ESR is the equivalent series resistance — the only loss mechanism,
	// which is what gives super-capacitors their 90-95% round-trip
	// efficiency.
	ESR float64
	// MaxPower optionally bounds transfer power (converter rating);
	// zero means ESR-limited only. Super-capacitors have no chemical
	// charge-current ceiling, which is the property the renewable
	// absorption experiments (Figure 12(d)) exercise.
	MaxPower units.Power
	// SelfDischargePerHour is the fractional energy leak per hour.
	SelfDischargePerHour float64
	// DoD restricts the usable window further for the capacity-planning
	// experiments; 1 means the full VMin..VMax window.
	DoD float64
	// LifeCycles is the rated cycle count (hundreds of thousands); used
	// only for the TCO amortization, not as an operating limit.
	LifeCycles float64
}

// DefaultSupercapConfig returns the prototype-like bank: two Maxwell
// 16 V / 600 F modules in series (300 F at 32 V).
func DefaultSupercapConfig() SupercapConfig {
	return SupercapConfig{
		Capacitance:          300,
		VMax:                 32,
		VMin:                 12,
		ESR:                  0.030,
		MaxPower:             0,
		SelfDischargePerHour: 2e-4,
		DoD:                  1,
		LifeCycles:           500000,
	}
}

// Validate reports the first invalid field.
func (c SupercapConfig) Validate() error {
	switch {
	case c.Capacitance <= 0:
		return fmt.Errorf("esd: capacitance %g must be positive", c.Capacitance)
	case c.VMax <= 0 || c.VMin < 0 || c.VMin >= c.VMax:
		return fmt.Errorf("esd: voltage window [%v, %v] invalid", c.VMin, c.VMax)
	case c.ESR <= 0:
		return fmt.Errorf("esd: ESR %g must be positive", c.ESR)
	case c.MaxPower < 0:
		return fmt.Errorf("esd: max power %v must be non-negative", c.MaxPower)
	case c.SelfDischargePerHour < 0:
		return fmt.Errorf("esd: self-discharge rate %g must be non-negative", c.SelfDischargePerHour)
	case c.DoD <= 0 || c.DoD > 1:
		return fmt.Errorf("esd: DoD %g must be in (0,1]", c.DoD)
	case c.LifeCycles <= 0:
		return fmt.Errorf("esd: life cycles %g must be positive", c.LifeCycles)
	}
	return nil
}

// Supercap is an ideal-capacitor-plus-ESR super-capacitor bank
// implementing Device. Its open-circuit voltage declines linearly with
// stored charge (V = Q/C), matching the Figure 5 characterization.
type Supercap struct {
	cfg SupercapConfig
	v   float64 // open-circuit voltage

	// failed marks a fault-injected dead bank.
	failed bool

	// floorV is the DoD-window floor voltage, fixed by the config.
	floorV float64

	// leakSecs and leakFactor memoize leak's per-call voltage factor for
	// the last step length (the engine always steps the same dt). Derived
	// from the config, so neither is part of SupercapState.
	leakSecs, leakFactor float64
	// stepSecs, stepN and stepH memoize the integration sub-step count and
	// length for the last step length, as leakSecs does the leak factor.
	stepSecs float64
	stepN    int
	stepH    float64

	stats Stats
}

var _ Device = (*Supercap)(nil)

// NewSupercap builds a fully charged bank from cfg.
func NewSupercap(cfg SupercapConfig) (*Supercap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vmax, vmin := float64(cfg.VMax), float64(cfg.VMin)
	e := (1 - cfg.DoD) * (vmax*vmax - vmin*vmin)
	s := &Supercap{cfg: cfg, floorV: math.Sqrt(vmin*vmin + e)}
	s.Reset()
	return s, nil
}

// MustNewSupercap is NewSupercap for known-good configs.
func MustNewSupercap(cfg SupercapConfig) *Supercap {
	s, err := NewSupercap(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the bank's configuration.
func (s *Supercap) Config() SupercapConfig { return s.cfg }

// vFloor is the lowest voltage the DoD window permits: the voltage at
// which stored usable energy is (1-DoD) of the full window.
func (s *Supercap) vFloor() float64 { return s.floorV }

// SoC is the usable-window state of charge (energy-based).
func (s *Supercap) SoC() float64 {
	vmax, vf := float64(s.cfg.VMax), s.vFloor()
	den := vmax*vmax - vf*vf
	if den <= 0 {
		return 0
	}
	return units.Clamp((s.v*s.v-vf*vf)/den, 0, 1)
}

// Voltage returns the open-circuit voltage.
func (s *Supercap) Voltage() units.Voltage { return units.Voltage(s.v) }

// TerminalVoltage estimates the loaded terminal voltage while delivering
// up to p watts: the capacitor voltage minus the ESR drop.
func (s *Supercap) TerminalVoltage(p units.Power) units.Voltage {
	if p <= 0 {
		return units.Voltage(s.v)
	}
	pw := min(float64(p), float64(s.MaxDischargePower()))
	i := solveDischargeCurrent(pw, s.v, s.cfg.ESR)
	return units.Voltage(s.v - i*s.cfg.ESR)
}

// Stored returns the usable stored energy above the window floor.
func (s *Supercap) Stored() units.Energy {
	if s.failed {
		return 0
	}
	vf := s.vFloor()
	if s.v <= vf {
		return 0
	}
	return units.Energy(0.5 * s.cfg.Capacitance * (s.v*s.v - vf*vf))
}

// Capacity returns the usable energy window.
func (s *Supercap) Capacity() units.Energy {
	vmax, vf := float64(s.cfg.VMax), s.vFloor()
	return units.Energy(0.5 * s.cfg.Capacitance * (vmax*vmax - vf*vf))
}

// Depleted reports whether the bank is at the bottom of its window.
func (s *Supercap) Depleted() bool {
	return s.failed || s.Stored() < 1e-6
}

// Fail injects a dead-bank fault; Repair clears it; Failed reports it.
func (s *Supercap) Fail() { s.failed = true }

// Repair clears an injected fault.
func (s *Supercap) Repair() { s.failed = false }

// Failed reports whether a fault is active.
func (s *Supercap) Failed() bool { return s.failed }

// MaxDischargePower estimates deliverable power right now: ESR-limited
// (voc²/4ESR at the matched-load point) and converter-limited.
func (s *Supercap) MaxDischargePower() units.Power {
	if s.failed || s.Depleted() {
		return 0
	}
	p := s.v * s.v / (4 * s.cfg.ESR)
	if s.cfg.MaxPower > 0 {
		p = min(p, float64(s.cfg.MaxPower))
	}
	return units.Power(p)
}

// MaxChargePower estimates acceptable charging power right now. Unlike
// batteries there is no chemical limit; only headroom and the optional
// converter rating bound it.
func (s *Supercap) MaxChargePower() units.Power {
	vmax := float64(s.cfg.VMax)
	if s.failed || s.v >= vmax {
		return 0
	}
	// Accept at most the power that would fill the remaining headroom in
	// one second — effectively unlimited for datacenter timescales.
	head := 0.5 * s.cfg.Capacitance * (vmax*vmax - s.v*s.v)
	p := head
	if s.cfg.MaxPower > 0 {
		p = min(p, float64(s.cfg.MaxPower))
	}
	return units.Power(p)
}

// Discharge draws up to req watts for dt, integrating the capacitor
// equation with sub-steps so the linear voltage decline is tracked even
// across large swings.
func (s *Supercap) Discharge(req units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if s.failed || req <= 0 || secs <= 0 || s.Depleted() {
		s.leak(secs)
		return 0
	}
	p := float64(req)
	if s.cfg.MaxPower > 0 {
		p = min(p, float64(s.cfg.MaxPower))
	}
	vf := s.vFloor()
	var delivered, loss float64
	steps, h := s.subStep(secs)
	for st := 0; st < steps && s.v > vf; st++ {
		i := solveDischargeCurrent(p, s.v, s.cfg.ESR)
		// Don't let this sub-step take the voltage below the floor.
		iMax := (s.v - vf) * s.cfg.Capacitance / h
		i = min(i, iMax)
		if i <= 0 {
			break
		}
		vt := s.v - i*s.cfg.ESR
		if vt <= 0 {
			break
		}
		delivered += vt * i * h
		loss += i * i * s.cfg.ESR * h
		s.v -= i * h / s.cfg.Capacitance
	}
	s.stats.EnergyOut += units.Energy(delivered)
	s.stats.Loss += units.Energy(loss)
	s.stats.DischargeTime += dt
	s.leak(secs)
	return units.Energy(delivered).Per(dt)
}

// Charge accepts up to offered watts for dt and returns the input power
// drawn from the source.
func (s *Supercap) Charge(offered units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if s.failed || offered <= 0 || secs <= 0 {
		s.leak(secs)
		return 0
	}
	p := float64(offered)
	if s.cfg.MaxPower > 0 {
		p = min(p, float64(s.cfg.MaxPower))
	}
	vmax := float64(s.cfg.VMax)
	var input, stored float64
	steps, h := s.subStep(secs)
	for st := 0; st < steps && s.v < vmax; st++ {
		i := solveChargeCurrent(p, s.v, s.cfg.ESR)
		iMax := (vmax - s.v) * s.cfg.Capacitance / h
		i = min(i, iMax)
		if i <= 0 {
			break
		}
		vt := s.v + i*s.cfg.ESR
		input += vt * i * h
		stored += s.v * i * h
		s.v += i * h / s.cfg.Capacitance
	}
	s.stats.EnergyIn += units.Energy(input)
	s.stats.Loss += units.Energy(input - stored)
	s.leak(secs)
	return units.Energy(input).Per(dt)
}

// Rest applies only self-discharge.
func (s *Supercap) Rest(dt time.Duration) { s.leak(dt.Seconds()) }

func (s *Supercap) leak(secs float64) {
	if secs <= 0 || s.cfg.SelfDischargePerHour == 0 {
		return
	}
	before := float64(s.Stored())
	// Energy leaks at the configured fraction per hour; V ∝ √E.
	if secs != s.leakSecs {
		s.leakSecs = secs
		s.leakFactor = math.Sqrt(math.Pow(1-s.cfg.SelfDischargePerHour, secs/3600))
	}
	s.v *= s.leakFactor
	vmin := float64(s.cfg.VMin)
	if s.v < vmin {
		s.v = vmin
	}
	after := float64(s.Stored())
	if before > after {
		s.stats.Loss += units.Energy(before - after)
	}
}

// Stats returns the cumulative energy ledger.
func (s *Supercap) Stats() Stats { return s.stats }

// Reset restores full charge and clears the ledger.
func (s *Supercap) Reset() {
	s.v = float64(s.cfg.VMax)
	s.failed = false
	s.stats = Stats{}
}

// SetSoC forces the usable-window state of charge to frac (clamped to
// [0,1]) without touching the energy ledger — an experiment-setup hook.
func (s *Supercap) SetSoC(frac float64) {
	frac = units.Clamp(frac, 0, 1)
	vmax, vf := float64(s.cfg.VMax), s.vFloor()
	s.v = math.Sqrt(vf*vf + frac*(vmax*vmax-vf*vf))
}

// subStep returns subSteps(secs) and the sub-step length, memoized for
// the last secs.
func (s *Supercap) subStep(secs float64) (int, float64) {
	if secs != s.stepSecs {
		n := subSteps(secs)
		s.stepSecs, s.stepN, s.stepH = secs, n, secs/float64(n)
	}
	return s.stepN, s.stepH
}

// subSteps picks an integration sub-step count: 1 s resolution, at least
// one step.
func subSteps(secs float64) int {
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	if n > 3600 {
		n = 3600
	}
	return n
}

package esd

import (
	"fmt"
	"math"
	"time"

	"heb/internal/units"
)

// BatteryConfig parameterizes a lead-acid battery string. The defaults in
// DefaultBatteryConfig correspond to the paper's prototype: a 24 V system
// built from 12 V, 4 Ah (and larger) lead-acid blocks.
type BatteryConfig struct {
	// NominalVoltage is the string nominal voltage (e.g. 24 V).
	NominalVoltage units.Voltage
	// CapacityAh is the rated capacity at the reference (20 h) rate.
	CapacityAh float64

	// C is the KiBaM available-well capacity fraction in (0, 1).
	C float64
	// K is the KiBaM rate constant between the wells, per hour.
	K float64

	// InternalOhm is the ohmic internal resistance of the string.
	InternalOhm float64
	// SagOhm scales the extra SoC-dependent resistance that produces the
	// sharp voltage collapse under large loads at low available charge
	// (Figure 5). Effective resistance is
	// InternalOhm + SagOhm*(1-h1)/max(h1, floor) with h1 the available
	// well fill fraction.
	SagOhm float64

	// VFullFrac and VEmptyFrac define the open-circuit voltage range as
	// fractions of nominal: OCV spans [VEmptyFrac, VFullFrac]·nominal
	// linearly with state of charge.
	VFullFrac, VEmptyFrac float64
	// CutoffFrac is the minimum terminal voltage under load, as a
	// fraction of nominal. Below it the battery refuses further current
	// (the UPS DC bus drops out).
	CutoffFrac float64

	// MaxChargeC and MaxDischargeC are current limits as C-rates
	// (multiples of CapacityAh per hour). MaxChargeC models the
	// upper-bound charging current that makes batteries unable to absorb
	// deep renewable valleys (Section 2.2).
	MaxChargeC    float64
	MaxDischargeC float64

	// CoulombicEff is the fraction of charge pushed in that is actually
	// stored; the rest gasses off as loss.
	CoulombicEff float64

	// DoD is the usable depth-of-discharge window: discharging stops
	// once total stored charge reaches (1-DoD)·capacity. The capacity
	// planning experiments (Figures 13 and 14) vary this knob exactly as
	// the paper does on the prototype.
	DoD float64

	// SelfDischargePerHour is the fractional charge leak per hour.
	SelfDischargePerHour float64

	// Life parameterizes the weighted Ah-throughput lifetime model.
	Life LifetimeConfig

	// Thermal activates cell-temperature modelling (self-heating,
	// charge derating when hot, Arrhenius wear acceleration). The zero
	// value disables it.
	Thermal ThermalConfig

	// FadeAtEOL is the fraction of capacity lost by end of life: the
	// effective capacity is nominal x (1 - FadeAtEOL x lifeFraction).
	// Zero disables aging effects on capacity.
	FadeAtEOL float64
	// ResistanceGrowthAtEOL scales internal resistance growth with age:
	// effective R = R x (1 + ResistanceGrowthAtEOL x lifeFraction).
	ResistanceGrowthAtEOL float64
}

// DefaultBatteryConfig returns the prototype-like 24 V lead-acid string.
func DefaultBatteryConfig() BatteryConfig {
	return BatteryConfig{
		NominalVoltage:       24,
		CapacityAh:           8,
		C:                    0.35,
		K:                    1.2,
		InternalOhm:          0.20,
		SagOhm:               0.07,
		VFullFrac:            1.09,
		VEmptyFrac:           0.92,
		CutoffFrac:           0.875,
		MaxChargeC:           0.15,
		MaxDischargeC:        1.2,
		CoulombicEff:         0.76,
		DoD:                  0.80,
		SelfDischargePerHour: 2e-5,
		Life:                 DefaultLifetimeConfig(),
	}
}

// LiIonBatteryConfig returns a lithium-ion string of the same 24 V / 8 Ah
// footprint as the default lead-acid one — an extension beyond the paper
// (its Figure 4 prices Li-ion but the prototype is lead-acid). Li-ion has
// near-unit coulombic efficiency, lower internal resistance, a flatter
// OCV curve, faster acceptable charging and weaker rate-capacity effects;
// the chemistry-ablation benchmark uses it to ask how much of HEB's win
// stems from lead-acid's specific weaknesses.
func LiIonBatteryConfig() BatteryConfig {
	return BatteryConfig{
		NominalVoltage:       24,
		CapacityAh:           8,
		C:                    0.85, // most charge is directly available
		K:                    6.0,
		InternalOhm:          0.06,
		SagOhm:               0.015,
		VFullFrac:            1.05,
		VEmptyFrac:           0.95,
		CutoffFrac:           0.90,
		MaxChargeC:           0.7,
		MaxDischargeC:        2.0,
		CoulombicEff:         0.98,
		DoD:                  0.90,
		SelfDischargePerHour: 4e-6,
		Life: LifetimeConfig{
			RatedCycles:   2500,
			RatedDoD:      0.9,
			RefCurrentC:   0.5, // rated at C/2
			CurrentExp:    0.9, // less current-sensitive than lead-acid
			SoCStress:     0.5,
			CalendarYears: 8,
		},
	}
}

// Validate reports the first invalid field of the configuration.
func (c BatteryConfig) Validate() error {
	switch {
	case c.NominalVoltage <= 0:
		return fmt.Errorf("esd: battery nominal voltage %v must be positive", c.NominalVoltage)
	case c.CapacityAh <= 0:
		return fmt.Errorf("esd: battery capacity %g Ah must be positive", c.CapacityAh)
	case c.C <= 0 || c.C >= 1:
		return fmt.Errorf("esd: KiBaM capacity fraction %g must be in (0,1)", c.C)
	case c.K <= 0:
		return fmt.Errorf("esd: KiBaM rate constant %g must be positive", c.K)
	case c.InternalOhm <= 0:
		return fmt.Errorf("esd: internal resistance %g must be positive", c.InternalOhm)
	case c.VFullFrac <= c.VEmptyFrac:
		return fmt.Errorf("esd: OCV range [%g, %g] inverted", c.VEmptyFrac, c.VFullFrac)
	case c.CutoffFrac <= 0 || c.CutoffFrac >= c.VFullFrac:
		return fmt.Errorf("esd: cutoff fraction %g out of range", c.CutoffFrac)
	case c.MaxChargeC <= 0 || c.MaxDischargeC <= 0:
		return fmt.Errorf("esd: C-rate limits must be positive (charge %g, discharge %g)", c.MaxChargeC, c.MaxDischargeC)
	case c.CoulombicEff <= 0 || c.CoulombicEff > 1:
		return fmt.Errorf("esd: coulombic efficiency %g must be in (0,1]", c.CoulombicEff)
	case c.DoD <= 0 || c.DoD > 1:
		return fmt.Errorf("esd: depth of discharge %g must be in (0,1]", c.DoD)
	case c.SelfDischargePerHour < 0:
		return fmt.Errorf("esd: self-discharge rate %g must be non-negative", c.SelfDischargePerHour)
	case c.FadeAtEOL < 0 || c.FadeAtEOL > 0.5:
		return fmt.Errorf("esd: capacity fade %g outside [0,0.5]", c.FadeAtEOL)
	case c.ResistanceGrowthAtEOL < 0 || c.ResistanceGrowthAtEOL > 3:
		return fmt.Errorf("esd: resistance growth %g outside [0,3]", c.ResistanceGrowthAtEOL)
	}
	if err := c.Thermal.Validate(); err != nil {
		return err
	}
	return c.Life.Validate()
}

// Battery is a KiBaM lead-acid battery string implementing Device.
type Battery struct {
	cfg BatteryConfig

	// q1 and q2 are the available and bound charge wells in coulombs.
	q1, q2 float64

	// failed marks a fault-injected dead string: it holds no usable
	// charge and refuses all transfers until Repair or Reset.
	failed bool

	thermal thermalState

	stats Stats
	wear  wearTracker

	// terms caches what depends only on the config and the wear; refresh
	// recomputes it. Derived state, so not part of BatteryState.
	terms batteryTerms

	// flowSecs, flowSteps and flowH memoize flow's sub-step count and
	// length for the last step length (the engine always steps the same
	// dt). They depend only on the config.
	flowSecs  float64
	flowSteps int
	flowH     float64
}

// batteryTerms are the derived quantities every step reads: the charge
// capacity and DoD floor, the KiBaM well sizes, the wells' share of the
// floor and the OCV line.
type batteryTerms struct {
	qMax, qFloor   float64
	cap1, cap2     float64 // C·qMax and (1−C)·qMax
	floorShare     float64 // C·qFloor
	ocvLo, ocvSpan float64 // OCV at zero total SoC, and its full-scale rise
}

var _ Device = (*Battery)(nil)

// NewBattery builds a fully charged battery from cfg.
func NewBattery(cfg BatteryConfig) (*Battery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Battery{cfg: cfg}
	b.Reset()
	return b, nil
}

// MustNewBattery is NewBattery for known-good (e.g. default) configs.
func MustNewBattery(cfg BatteryConfig) *Battery {
	b, err := NewBattery(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the battery's configuration.
func (b *Battery) Config() BatteryConfig { return b.cfg }

// lifeFraction is the consumed share of the rated weighted throughput,
// the aging clock for capacity fade and resistance growth.
func (b *Battery) lifeFraction() float64 {
	rated := b.cfg.Life.ratedThroughputAh(b.cfg.CapacityAh)
	if rated <= 0 {
		return 0
	}
	return min(1, b.wear.weightedAh/rated)
}

// refresh recomputes the cached terms from the config and the present
// wear. Only the wear clock moves them, and only when capacity fade is
// configured, so Reset, PreAge and a discharge with fade on call it.
func (b *Battery) refresh() {
	qMax := float64(units.AmpereHours(b.cfg.CapacityAh))
	if b.cfg.FadeAtEOL > 0 {
		qMax *= 1 - b.cfg.FadeAtEOL*b.lifeFraction()
	}
	qFloor := (1 - b.cfg.DoD) * qMax
	vn := float64(b.cfg.NominalVoltage)
	lo, hi := b.cfg.VEmptyFrac*vn, b.cfg.VFullFrac*vn
	b.terms = batteryTerms{
		qMax:       qMax,
		qFloor:     qFloor,
		cap1:       b.cfg.C * qMax,
		cap2:       (1 - b.cfg.C) * qMax,
		floorShare: b.cfg.C * qFloor,
		ocvLo:      lo,
		ocvSpan:    hi - lo,
	}
}

// qMax is the total charge capacity in coulombs, shrunk by age when
// capacity fade is configured.
func (b *Battery) qMax() float64 { return b.terms.qMax }

// qFloor is the charge level at which the DoD window is exhausted.
func (b *Battery) qFloor() float64 { return b.terms.qFloor }

// SoC reports state of charge over the usable DoD window.
func (b *Battery) SoC() float64 {
	usable := b.qMax() - b.qFloor()
	if usable <= 0 {
		return 0
	}
	return units.Clamp((b.q1+b.q2-b.qFloor())/usable, 0, 1)
}

// totalSoC is state of charge over the full chemical capacity; the OCV
// curve depends on this, not on the DoD window.
func (b *Battery) totalSoC() float64 {
	return units.Clamp((b.q1+b.q2)/b.qMax(), 0, 1)
}

// Voltage returns the present open-circuit voltage.
func (b *Battery) Voltage() units.Voltage {
	return b.ocv()
}

// TerminalVoltage estimates the loaded terminal voltage while delivering
// up to p watts: OCV minus the drop over the effective (sag-inclusive)
// resistance at the achievable current. This is what the Figure 5
// characterization plots.
func (b *Battery) TerminalVoltage(p units.Power) units.Voltage {
	if p <= 0 {
		return b.ocv()
	}
	voc, r, iMax := b.dischargeLimits()
	i := solveDischargeCurrent(float64(p), voc, r)
	i = min(i, iMax)
	return units.Voltage(voc - i*r)
}

func (b *Battery) ocv() units.Voltage {
	return units.Voltage(b.terms.ocvLo + b.terms.ocvSpan*b.totalSoC())
}

// h1Frac is the fill fraction of the available well.
func (b *Battery) h1Frac() float64 {
	if b.terms.cap1 <= 0 {
		return 0
	}
	return units.Clamp(b.q1/b.terms.cap1, 0, 1)
}

// effectiveOhm is the load-path resistance including the SoC-dependent
// sag term that collapses the voltage when the available well runs low.
func (b *Battery) effectiveOhm() float64 {
	const floor = 0.05
	h1 := max(b.h1Frac(), floor)
	r := b.cfg.InternalOhm + b.cfg.SagOhm*(1-h1)/h1
	if b.cfg.ResistanceGrowthAtEOL > 0 {
		r *= 1 + b.cfg.ResistanceGrowthAtEOL*b.lifeFraction()
	}
	return r
}

// availableDischargeCharge is how much charge can leave the available well
// this step without violating the DoD floor.
func (b *Battery) availableDischargeCharge() float64 {
	avail := b.q1 - b.terms.floorShare // keep the wells proportionally floored
	total := b.q1 + b.q2 - b.qFloor()
	return max(0, min(avail, total))
}

// dischargeLimits evaluates the OCV and the effective resistance once and
// returns them with the instantaneous current limit from the C-rate cap
// and the cutoff-voltage constraint.
func (b *Battery) dischargeLimits() (voc, r, iMax float64) {
	iRate := b.cfg.MaxDischargeC * b.cfg.CapacityAh // amps
	voc = float64(b.ocv())
	vcut := b.cfg.CutoffFrac * float64(b.cfg.NominalVoltage)
	r = b.effectiveOhm()
	iCut := (voc - vcut) / r
	return voc, r, max(0, min(iRate, iCut))
}

// MaxDischargePower estimates deliverable power right now.
func (b *Battery) MaxDischargePower() units.Power {
	if b.failed || b.availableDischargeCharge() < 1e-9 {
		return 0
	}
	voc, r, i := b.dischargeLimits()
	if i < 1e-9 { // Depleted
		return 0
	}
	v := voc - i*r
	return units.Power(max(0, v*i))
}

// MaxChargePower estimates acceptable charging power right now.
func (b *Battery) MaxChargePower() units.Power {
	if b.failed {
		return 0
	}
	head := b.qMax() - (b.q1 + b.q2)
	if head <= 0 {
		return 0
	}
	i := b.cfg.MaxChargeC * b.cfg.CapacityAh * b.thermal.chargeDerate(&b.cfg.Thermal)
	voc := float64(b.ocv())
	v := voc + i*b.cfg.InternalOhm
	return units.Power(v * i)
}

// Depleted reports whether the usable window is effectively empty.
func (b *Battery) Depleted() bool {
	if b.failed || b.availableDischargeCharge() < 1e-9 {
		return true
	}
	_, _, iMax := b.dischargeLimits()
	return iMax < 1e-9
}

// Fail injects a dead-string fault (open cell, blown fuse): the battery
// stops accepting and delivering power until Repair or Reset.
func (b *Battery) Fail() { b.failed = true }

// Repair clears an injected fault.
func (b *Battery) Repair() { b.failed = false }

// Failed reports whether a fault is active.
func (b *Battery) Failed() bool { return b.failed }

// Stored returns the usable stored energy at open-circuit voltage,
// counting only charge above the DoD floor.
func (b *Battery) Stored() units.Energy {
	if b.failed {
		return 0
	}
	q := max(0, b.q1+b.q2-b.qFloor())
	return units.Charge(q).At(b.ocv())
}

// Capacity returns the usable (DoD-window) energy capacity at nominal
// voltage.
func (b *Battery) Capacity() units.Energy {
	return units.Charge(b.cfg.DoD * b.qMax()).At(b.cfg.NominalVoltage)
}

// Discharge draws up to req watts for dt. The actual current solves the
// quadratic req = (OCV - i·R)·i, then is clamped by the C-rate limit, the
// cutoff voltage and the available-well charge; KiBaM well flow then runs
// for dt.
func (b *Battery) Discharge(req units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if b.failed || req <= 0 || secs <= 0 {
		b.flow(secs)
		return 0
	}
	avail := b.availableDischargeCharge()
	voc, r, iMax := b.dischargeLimits()
	if avail < 1e-9 || iMax < 1e-9 { // Depleted
		b.flow(secs)
		return 0
	}
	i := solveDischargeCurrent(float64(req), voc, r)
	i = min(i, iMax)
	i = min(i, avail/secs)
	if i <= 0 {
		b.flow(secs)
		return 0
	}
	v := voc - i*r
	delivered := units.Power(v * i)

	drawn := i * secs // coulombs out of the available well
	b.wear.recordDischarge(b.cfg, i, b.SoC(), drawn)
	if m := b.thermal.wearMultiplier(b.cfg.Thermal); m != 1 {
		// Re-weight the increment for temperature-accelerated aging.
		extra := units.Charge(drawn).Ah() * b.wear.lastWeight * (m - 1)
		b.wear.weightedAh += extra
		b.wear.lastWeight *= m
	}
	if b.cfg.FadeAtEOL > 0 {
		b.refresh() // the wear clock moved the capacity
	}
	b.q1 -= drawn
	b.stats.EnergyOut += delivered.Over(dt)
	dissipated := (voc - v) * i
	b.stats.Loss += units.Energy(dissipated * secs)
	b.stats.ThroughputAh += units.Charge(drawn).Ah()
	b.stats.WeightedAh += units.Charge(drawn).Ah() * b.wear.lastWeight
	b.stats.DischargeTime += dt

	b.thermal.advance(&b.cfg.Thermal, dissipated, secs)
	b.flow(secs)
	return delivered
}

// Charge accepts up to offered watts for dt and returns the input power
// actually drawn from the source.
func (b *Battery) Charge(offered units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if b.failed || offered <= 0 || secs <= 0 {
		b.flow(secs)
		return 0
	}
	head := b.qMax() - (b.q1 + b.q2)
	if head <= 0 {
		b.flow(secs)
		return 0
	}
	voc := float64(b.ocv())
	r := b.cfg.InternalOhm
	i := solveChargeCurrent(float64(offered), voc, r)
	i = min(i, b.cfg.MaxChargeC*b.cfg.CapacityAh*b.thermal.chargeDerate(&b.cfg.Thermal))
	// Only CoulombicEff of the current is stored; cap so stored charge
	// fits in the remaining headroom.
	i = min(i, head/(b.cfg.CoulombicEff*secs))
	if i <= 0 {
		b.flow(secs)
		return 0
	}
	v := voc + i*r
	input := units.Power(v * i)

	stored := b.cfg.CoulombicEff * i * secs
	// Charge enters the available well first, overflowing into the bound
	// well, mirroring how KiBaM treats charging as a negative current on
	// the available well.
	into1 := min(stored, max(0, b.terms.cap1-b.q1))
	b.q1 += into1
	b.q2 += stored - into1

	storedEnergy := units.Charge(stored).At(units.Voltage(voc))
	b.stats.EnergyIn += input.Over(dt)
	loss := input.Over(dt) - storedEnergy
	b.stats.Loss += loss
	b.thermal.advance(&b.cfg.Thermal, float64(loss)/secs, secs)

	b.flow(secs)
	return input
}

// Rest lets the battery recover (well equalization), self-discharge and
// cool toward ambient.
func (b *Battery) Rest(dt time.Duration) {
	b.thermal.advance(&b.cfg.Thermal, 0, dt.Seconds())
	b.flow(dt.Seconds())
}

// flow advances the KiBaM inter-well diffusion and self-discharge by secs
// seconds using sub-stepped explicit Euler (stable for k·dt ≤ 0.1).
func (b *Battery) flow(secs float64) {
	if secs <= 0 {
		return
	}
	kPerSec := b.cfg.K / 3600
	cap1, cap2 := b.terms.cap1, b.terms.cap2
	// Live aging can shrink capacity below the stored charge; the
	// stranded charge is lost (sulfated plate area).
	if total := b.q1 + b.q2; total > cap1+cap2 {
		scale := (cap1 + cap2) / total
		b.q1 *= scale
		b.q2 *= scale
	}
	if secs != b.flowSecs {
		steps := int(math.Ceil(secs * kPerSec / 0.1))
		if steps < 1 {
			steps = 1
		}
		b.flowSecs, b.flowSteps, b.flowH = secs, steps, secs/float64(steps)
	}
	steps, h := b.flowSteps, b.flowH
	leak := b.cfg.SelfDischargePerHour / 3600
	capMin := min(cap1, cap2)
	for s := 0; s < steps; s++ {
		h1 := b.q1 / cap1
		h2 := b.q2 / cap2
		dq := kPerSec * (h2 - h1) * h * capMin
		// Transfer bound charge toward the available well (or back).
		dq = units.Clamp(dq, -b.q1, b.q2)
		dq = min(dq, cap1-b.q1)
		b.q1 += dq
		b.q2 -= dq
		if leak > 0 {
			lost1, lost2 := b.q1*leak*h, b.q2*leak*h
			b.q1 -= lost1
			b.q2 -= lost2
			b.stats.Loss += units.Charge(lost1 + lost2).At(b.ocv())
		}
	}
}

// Stats returns the cumulative energy ledger.
func (b *Battery) Stats() Stats { return b.stats }

// Reset restores full charge and clears the ledger and wear state. The
// wear goes first: the wells refill to the unfaded capacity.
func (b *Battery) Reset() {
	b.wear = wearTracker{}
	b.refresh()
	b.q1 = b.terms.cap1
	b.q2 = b.terms.cap2
	b.failed = false
	b.thermal = newThermalState(b.cfg.Thermal)
	b.stats = Stats{}
}

// Wear exposes the lifetime tracker for the Figure 12(c) analysis.
func (b *Battery) Wear() WearReport { return b.wear.report(b.cfg) }

// PreAge loads the wear tracker as if lifeFraction of the rated weighted
// throughput had already been consumed (an experiment-setup hook for
// aging studies), then re-fits the stored charge into the faded capacity.
func (b *Battery) PreAge(lifeFraction float64) {
	lifeFraction = units.Clamp(lifeFraction, 0, 1)
	soc := b.SoC()
	b.wear.weightedAh = lifeFraction * b.cfg.Life.ratedThroughputAh(b.cfg.CapacityAh)
	b.refresh()
	b.SetSoC(soc)
}

// SetSoC forces the usable-window state of charge to frac (clamped to
// [0,1]) without touching the energy ledger — an experiment-setup hook
// ("the run began with the buffers at 55%"), not an operational path.
func (b *Battery) SetSoC(frac float64) {
	frac = units.Clamp(frac, 0, 1)
	total := b.qFloor() + frac*(b.qMax()-b.qFloor())
	b.q1 = b.cfg.C * total
	b.q2 = (1 - b.cfg.C) * total
}

// solveDischargeCurrent finds i ≥ 0 with (voc - i·r)·i = p, taking the
// smaller root (the stable operating point). If p exceeds the maximum
// transferable power voc²/(4r), the maximum-power current voc/(2r) is
// returned.
func solveDischargeCurrent(p, voc, r float64) float64 {
	disc := voc*voc - 4*r*p
	if disc <= 0 {
		return voc / (2 * r)
	}
	return (voc - math.Sqrt(disc)) / (2 * r)
}

// solveChargeCurrent finds i ≥ 0 with (voc + i·r)·i = p.
func solveChargeCurrent(p, voc, r float64) float64 {
	return (-voc + math.Sqrt(voc*voc+4*r*p)) / (2 * r)
}

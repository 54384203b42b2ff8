package esd

import (
	"fmt"
	"math"
	"time"
)

// LifetimeConfig parameterizes the weighted Ah-throughput battery lifetime
// model (Bindner et al., Risø, the paper's reference [49]). The model's
// premise: a battery can deliver a fixed total charge throughput over its
// life — RatedCycles full cycles at RatedDoD — but charge drawn at high
// current or at deep discharge "costs" more than its face value. Each
// discharged ampere-hour is multiplied by a stress weight
//
//	w = max(1, (I/I_ref)^CurrentExp) · (1 + SoCStress·(1-SoC))
//
// and the battery is considered worn out when the weighted throughput
// reaches the rated total.
type LifetimeConfig struct {
	// RatedCycles is the cycle life at RatedDoD (lead-acid: 2000-3000).
	RatedCycles float64
	// RatedDoD is the depth of discharge at which RatedCycles holds.
	RatedDoD float64
	// RefCurrentC is the reference discharge C-rate (the datasheet rate,
	// e.g. 0.05 for a 20-hour rate).
	RefCurrentC float64
	// CurrentExp is the stress exponent applied to I/I_ref above 1.
	CurrentExp float64
	// SoCStress is the additional wear weight per unit of discharge
	// depth (drawing at SoC 0.2 weighs (1 + 0.8·SoCStress)).
	SoCStress float64
	// CalendarYears bounds the estimate: even an unused battery dies of
	// corrosion and sulfation after this long.
	CalendarYears float64
}

// DefaultLifetimeConfig returns lead-acid constants: 2500 cycles at 80%
// DoD, rated at the 20-hour rate, with moderate current and depth stress.
func DefaultLifetimeConfig() LifetimeConfig {
	return LifetimeConfig{
		RatedCycles:   2500,
		RatedDoD:      0.8,
		RefCurrentC:   0.10,
		CurrentExp:    1.25,
		SoCStress:     1.2,
		CalendarYears: 10,
	}
}

// Validate reports the first invalid field.
func (c LifetimeConfig) Validate() error {
	switch {
	case c.RatedCycles <= 0:
		return fmt.Errorf("esd: rated cycles %g must be positive", c.RatedCycles)
	case c.RatedDoD <= 0 || c.RatedDoD > 1:
		return fmt.Errorf("esd: rated DoD %g must be in (0,1]", c.RatedDoD)
	case c.RefCurrentC <= 0:
		return fmt.Errorf("esd: reference C-rate %g must be positive", c.RefCurrentC)
	case c.CurrentExp < 0:
		return fmt.Errorf("esd: current exponent %g must be non-negative", c.CurrentExp)
	case c.SoCStress < 0:
		return fmt.Errorf("esd: SoC stress %g must be non-negative", c.SoCStress)
	case c.CalendarYears <= 0:
		return fmt.Errorf("esd: calendar life %g must be positive", c.CalendarYears)
	}
	return nil
}

// ratedThroughputAh is the total unweighted charge the battery is rated to
// deliver over its life.
func (c LifetimeConfig) ratedThroughputAh(capacityAh float64) float64 {
	return c.RatedCycles * c.RatedDoD * capacityAh
}

// wearTracker accumulates weighted throughput inside a Battery.
type wearTracker struct {
	throughputAh float64
	weightedAh   float64
	lastWeight   float64
	peakWeight   float64
}

// recordDischarge notes a discharge of drawn coulombs at current i amps
// starting from state of charge soc.
func (w *wearTracker) recordDischarge(cfg BatteryConfig, i, soc, drawn float64) {
	iRef := cfg.Life.RefCurrentC * cfg.CapacityAh
	stress := 1.0
	if iRef > 0 && i > iRef {
		stress = math.Pow(i/iRef, cfg.Life.CurrentExp)
	}
	depth := 1 + cfg.Life.SoCStress*(1-soc)
	w.lastWeight = stress * depth
	if w.lastWeight > w.peakWeight {
		w.peakWeight = w.lastWeight
	}
	ah := drawn / 3600
	w.throughputAh += ah
	w.weightedAh += ah * w.lastWeight
}

// WearReport summarizes battery aging for lifetime estimation.
type WearReport struct {
	// ThroughputAh is the raw discharged charge.
	ThroughputAh float64
	// WeightedAh is the stress-weighted discharged charge.
	WeightedAh float64
	// RatedAh is the lifetime weighted-throughput budget.
	RatedAh float64
	// EquivalentFullCycles is ThroughputAh divided by capacity.
	EquivalentFullCycles float64
	// LifeFractionUsed is WeightedAh / RatedAh.
	LifeFractionUsed float64
	// PeakStressWeight is the largest single wear weight observed.
	PeakStressWeight float64
}

func (w wearTracker) report(cfg BatteryConfig) WearReport {
	rated := cfg.Life.ratedThroughputAh(cfg.CapacityAh)
	r := WearReport{
		ThroughputAh:     w.throughputAh,
		WeightedAh:       w.weightedAh,
		RatedAh:          rated,
		PeakStressWeight: w.peakWeight,
	}
	if cfg.CapacityAh > 0 {
		r.EquivalentFullCycles = w.throughputAh / cfg.CapacityAh
	}
	if rated > 0 {
		r.LifeFractionUsed = w.weightedAh / rated
	}
	return r
}

// EstimateYears projects battery lifetime in years assuming the wear
// accumulated over elapsed continues at the same rate, capped by the
// calendar life. A battery that saw no discharge lives its calendar life.
func (r WearReport) EstimateYears(cfg LifetimeConfig, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return cfg.CalendarYears
	}
	if r.WeightedAh <= 0 {
		return cfg.CalendarYears
	}
	perYear := r.WeightedAh / (elapsed.Hours() / (24 * 365))
	years := r.RatedAh / perYear
	return min(years, cfg.CalendarYears)
}

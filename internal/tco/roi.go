package tco

import "fmt"

// ROIParams parameterizes the Figure 15(b) analysis: is it worth buying a
// hybrid energy buffer instead of provisioning more power infrastructure?
// Following the paper (and [6]): buffers sized to sustain e hours of peak
// cost e·C_HEB dollars per watt, while provisioning the watt outright
// costs C_cap; both are amortized over their lifetimes before comparing.
type ROIParams struct {
	// BatteryCostPerKWh and SCCostPerKWh are purchase prices
	// (paper: 300 and 10,000 $/kWh).
	BatteryCostPerKWh, SCCostPerKWh float64
	// BatteryFraction and SCFraction are the energy-capacity shares
	// (paper prototype: 0.7 battery, 0.3 SC).
	BatteryFraction, SCFraction float64
	// BatteryLifeYears, SCLifeYears and InfraLifeYears amortize the
	// costs (paper: 4, 12 and 12 years).
	BatteryLifeYears, SCLifeYears, InfraLifeYears float64
}

// DefaultROIParams returns the paper's constants.
func DefaultROIParams() ROIParams {
	return ROIParams{
		BatteryCostPerKWh: 300,
		SCCostPerKWh:      10000,
		BatteryFraction:   0.7,
		SCFraction:        0.3,
		BatteryLifeYears:  4,
		SCLifeYears:       12,
		InfraLifeYears:    12,
	}
}

// Validate reports the first invalid field.
func (p ROIParams) Validate() error {
	switch {
	case p.BatteryCostPerKWh <= 0 || p.SCCostPerKWh <= 0:
		return fmt.Errorf("tco: storage costs must be positive")
	case p.BatteryFraction < 0 || p.SCFraction < 0:
		return fmt.Errorf("tco: capacity fractions must be non-negative")
	case p.BatteryFraction+p.SCFraction <= 0:
		return fmt.Errorf("tco: capacity fractions sum to zero")
	case p.BatteryLifeYears <= 0 || p.SCLifeYears <= 0 || p.InfraLifeYears <= 0:
		return fmt.Errorf("tco: lifetimes must be positive")
	}
	return nil
}

// AmortizedHybridCostPerWhYear spreads the blended cost over component
// lifetimes, in $/Wh/year.
func (p ROIParams) AmortizedHybridCostPerWhYear() float64 {
	batt := p.BatteryCostPerKWh / 1000 * p.BatteryFraction / p.BatteryLifeYears
	sc := p.SCCostPerKWh / 1000 * p.SCFraction / p.SCLifeYears
	return batt + sc
}

// ROI computes the paper's metric (C_cap − e·C_HEB)/(e·C_HEB) on
// amortized per-year costs: capPerWatt is the infrastructure cost in $/W,
// peakHours is e, the peak duration the buffer must sustain. Positive
// values mean the buffer is cheaper than provisioning the watt.
func (p ROIParams) ROI(capPerWatt, peakHours float64) float64 {
	if peakHours <= 0 {
		return 0
	}
	capAmort := capPerWatt / p.InfraLifeYears
	hebAmort := peakHours * p.AmortizedHybridCostPerWhYear()
	if hebAmort <= 0 {
		return 0
	}
	return (capAmort - hebAmort) / hebAmort
}

// ROIPoint is one cell of the Figure 15(b) surface.
type ROIPoint struct {
	CapPerWatt float64
	PeakHours  float64
	ROI        float64
}

// ROISurface evaluates ROI over the cross product of infrastructure costs
// and peak durations (the paper sweeps C_cap 2-20 $/W).
func (p ROIParams) ROISurface(capPerWatt, peakHours []float64) []ROIPoint {
	out := make([]ROIPoint, 0, len(capPerWatt)*len(peakHours))
	for _, c := range capPerWatt {
		for _, e := range peakHours {
			out = append(out, ROIPoint{CapPerWatt: c, PeakHours: e, ROI: p.ROI(c, e)})
		}
	}
	return out
}

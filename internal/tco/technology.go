// Package tco implements the paper's economic analyses: the energy
// storage technology cost comparison (Figure 4), the prototype cost
// breakdown (Figure 15(a)), the return-on-investment analysis for
// under-provisioned infrastructure (Figure 15(b)), and the eight-year
// peak-shaving revenue model with per-scheme break-even points
// (Figure 15(c)).
package tco

// Technology describes one energy storage technology's cost structure
// (paper references [34, 37, 38]).
type Technology struct {
	// Name identifies the technology.
	Name string
	// InitialCostPerKWh is the purchase price in $/kWh of capacity.
	InitialCostPerKWh float64
	// CycleLife is the rated charge/discharge cycle count.
	CycleLife float64
	// CalendarYears is the shelf-life bound.
	CalendarYears float64
	// Efficiency is the round-trip energy efficiency.
	Efficiency float64
}

// AmortizedCostPerKWhCycle is the Figure 4 metric: purchase price spread
// over the rated cycle life, in $/kWh per cycle.
func (t Technology) AmortizedCostPerKWhCycle() float64 {
	if t.CycleLife <= 0 {
		return 0
	}
	return t.InitialCostPerKWh / t.CycleLife
}

// Technologies returns the Figure 4 comparison set with the paper's cost
// ranges collapsed to midpoints.
func Technologies() []Technology {
	return []Technology{
		{Name: "Lead-acid", InitialCostPerKWh: 200, CycleLife: 2500, CalendarYears: 5, Efficiency: 0.78},
		{Name: "NiCd", InitialCostPerKWh: 600, CycleLife: 1500, CalendarYears: 10, Efficiency: 0.72},
		{Name: "Li-ion", InitialCostPerKWh: 900, CycleLife: 2500, CalendarYears: 8, Efficiency: 0.92},
		{Name: "Flywheel", InitialCostPerKWh: 2000, CycleLife: 20000, CalendarYears: 15, Efficiency: 0.90},
		// The SC cycle count here is full-depth usable cycles, which
		// lands the amortized cost at the paper's ~0.4 $/kWh/cycle;
		// shallow-cycle counts run into the hundreds of thousands.
		{Name: "Super-capacitor", InitialCostPerKWh: 30000, CycleLife: 75000, CalendarYears: 12, Efficiency: 0.93},
	}
}

// BreakdownItem is one slice of the prototype cost pie (Figure 15(a)).
type BreakdownItem struct {
	Name    string
	CostUSD float64
}

// PrototypeBreakdown returns the HEB node bill of materials. The paper
// reports energy storage devices at ~55% of node cost and the whole node
// below 16% of the six-server cluster cost (≈ $4850).
func PrototypeBreakdown() []BreakdownItem {
	return []BreakdownItem{
		{Name: "Energy storage devices (SCs + batteries)", CostUSD: 420},
		{Name: "Two-way relays", CostUSD: 60},
		{Name: "Control node (PLC)", CostUSD: 110},
		{Name: "Sensors (V/I/T)", CostUSD: 55},
		{Name: "Inverters (2x 1000W)", CostUSD: 90},
		{Name: "Cabinet & wiring", CostUSD: 35},
	}
}

// BreakdownTotal sums the bill of materials.
func BreakdownTotal(items []BreakdownItem) float64 {
	var sum float64
	for _, it := range items {
		sum += it.CostUSD
	}
	return sum
}

package tco

import (
	"math"
	"testing"
)

func TestTechnologiesTable(t *testing.T) {
	techs := Technologies()
	if len(techs) < 4 {
		t.Fatalf("only %d technologies", len(techs))
	}
	byName := map[string]Technology{}
	for _, tech := range techs {
		byName[tech.Name] = tech
	}
	la, sc, liion := byName["Lead-acid"], byName["Super-capacitor"], byName["Li-ion"]
	if la.Name == "" || sc.Name == "" || liion.Name == "" {
		t.Fatalf("Figure 4 set %v lacks lead-acid, super-capacitor or Li-ion", techs)
	}
	// Figure 4's two headline facts: SC initial cost is orders of
	// magnitude above batteries, but amortized per-cycle cost is
	// competitive (close to NiCd/Li-ion, above lead-acid).
	if sc.InitialCostPerKWh < 50*la.InitialCostPerKWh {
		t.Errorf("SC initial %g not >> lead-acid %g", sc.InitialCostPerKWh, la.InitialCostPerKWh)
	}
	if sc.AmortizedCostPerKWhCycle() <= la.AmortizedCostPerKWhCycle() {
		t.Errorf("SC amortized %g should still exceed lead-acid %g",
			sc.AmortizedCostPerKWhCycle(), la.AmortizedCostPerKWhCycle())
	}
	ratio := sc.AmortizedCostPerKWhCycle() / liion.AmortizedCostPerKWhCycle()
	if ratio > 2 || ratio < 0.02 {
		t.Errorf("SC amortized cost not competitive with Li-ion: ratio %g", ratio)
	}
}

func TestAmortizedCostZeroCycles(t *testing.T) {
	if got := (Technology{InitialCostPerKWh: 100}).AmortizedCostPerKWhCycle(); got != 0 {
		t.Errorf("zero-cycle amortized cost %g", got)
	}
}

func TestPrototypeBreakdown(t *testing.T) {
	items := PrototypeBreakdown()
	total := BreakdownTotal(items)
	if total <= 0 {
		t.Fatal("empty breakdown")
	}
	shares := map[string]float64{}
	for _, it := range items {
		shares[it.Name] = it.CostUSD / total
	}
	// The paper's two claims: ESDs dominate (~55%) and the node costs
	// under 16% of the ~$4850 six-server cluster.
	esd := shares["Energy storage devices (SCs + batteries)"]
	if esd < 0.45 || esd < 0.5*maxShare(shares) {
		t.Errorf("ESD share %.2f should dominate the breakdown", esd)
	}
	if total > 0.16*4850 {
		t.Errorf("node cost $%.0f exceeds 16%% of cluster cost", total)
	}
}

func maxShare(m map[string]float64) float64 {
	var max float64
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

func TestROIParamsValidate(t *testing.T) {
	p := DefaultROIParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	p.BatteryCostPerKWh = 0
	if err := p.Validate(); err == nil {
		t.Error("accepted zero battery cost")
	}
	p = DefaultROIParams()
	p.BatteryFraction, p.SCFraction = 0, 0
	if err := p.Validate(); err == nil {
		t.Error("accepted zero fractions")
	}
	p = DefaultROIParams()
	p.InfraLifeYears = 0
	if err := p.Validate(); err == nil {
		t.Error("accepted zero infra life")
	}
}

func TestROISigns(t *testing.T) {
	p := DefaultROIParams()
	// Expensive infrastructure, short peaks: buffers win.
	if roi := p.ROI(20, 0.5); roi <= 0 {
		t.Errorf("ROI(20$/W, 0.5h) = %g, want positive", roi)
	}
	// Cheap infrastructure, long peaks: buffers lose.
	if roi := p.ROI(2, 6); roi >= 0 {
		t.Errorf("ROI(2$/W, 6h) = %g, want negative", roi)
	}
	// ROI decreases with peak duration and increases with infra cost.
	if p.ROI(10, 1) <= p.ROI(10, 2) {
		t.Error("ROI should fall with longer peaks")
	}
	if p.ROI(20, 1) <= p.ROI(5, 1) {
		t.Error("ROI should rise with infrastructure cost")
	}
	if got := p.ROI(10, 0); got != 0 {
		t.Errorf("ROI at zero peak hours = %g", got)
	}
}

func TestROISurface(t *testing.T) {
	p := DefaultROIParams()
	pts := p.ROISurface([]float64{2, 10, 20}, []float64{0.5, 1, 2, 4})
	if len(pts) != 12 {
		t.Fatalf("surface has %d points, want 12", len(pts))
	}
	positive := 0
	for _, pt := range pts {
		if pt.ROI > 0 {
			positive++
		}
	}
	// Paper: "positive ROI across most of the operating regions".
	if positive <= len(pts)/2 {
		t.Errorf("only %d/%d surface points positive", positive, len(pts))
	}
}

func schemeScenario(eff, avail, battLife float64, scFraction float64) ShavingScenario {
	s := DefaultShavingScenario()
	s.SCFraction = scFraction
	s.Efficiency = eff
	s.Availability = avail
	s.BatteryLifeYears = battLife
	return s
}

func TestShavingScenarioValidate(t *testing.T) {
	good := schemeScenario(0.8, 0.99, 4, 0.3)
	if err := good.Validate(); err != nil {
		t.Fatalf("good scenario rejected: %v", err)
	}
	bad := good
	bad.Efficiency = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero efficiency")
	}
	bad = good
	bad.BatteryLifeYears = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero battery life")
	}
	bad = good
	bad.PeakHoursPerDay = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero peak duration")
	}
}

func TestShavedKWBounded(t *testing.T) {
	s := schemeScenario(1.0, 1.0, 10, 0)
	s.BufferKWh = 100000 // absurdly large buffer
	if got := s.ShavedKW(); got != s.DatacenterKW {
		t.Errorf("shaved %g kW, want capped at facility %g", got, s.DatacenterKW)
	}
}

func TestCapitalAccrual(t *testing.T) {
	s := schemeScenario(0.7, 0.99, 4, 0) // battery-only, 4-year life
	initial := s.BufferKWh * s.BatteryCostPerKWh
	if got := s.InitialCapital(); got != initial {
		t.Errorf("initial capital %g, want %g", got, initial)
	}
	// Reserve: $6000 over 4 years = $1500/yr.
	if got := s.ReserveRate(); math.Abs(got-1500) > 1e-9 {
		t.Errorf("reserve rate %g, want 1500", got)
	}
	if got := s.CapitalAt(2); math.Abs(got-(initial+3000)) > 1e-9 {
		t.Errorf("capital at year 2 = %g, want %g", got, initial+3000)
	}
	// Longer battery life (HEB's 4.7x) shrinks the reserve.
	long := schemeScenario(0.7, 0.99, 18.8, 0)
	if long.ReserveRate() >= s.ReserveRate()/4 {
		t.Errorf("4.7x battery life reserve %g not ~4.7x smaller than %g",
			long.ReserveRate(), s.ReserveRate())
	}
	// Hybrid scenarios add the SC reserve.
	hybrid := schemeScenario(0.7, 0.99, 4, 0.3)
	wantSC := hybrid.BufferKWh * 0.3 * hybrid.SCCostPerKWh / hybrid.SCLifeYears
	wantBatt := hybrid.BufferKWh * 0.7 * hybrid.BatteryCostPerKWh / 4
	if got := hybrid.ReserveRate(); math.Abs(got-(wantSC+wantBatt)) > 1e-9 {
		t.Errorf("hybrid reserve %g, want %g", got, wantSC+wantBatt)
	}
}

func TestTimelineShape(t *testing.T) {
	s := schemeScenario(0.8, 0.99, 8.1, 0.3)
	pts := s.Timeline()
	if len(pts) != 8 {
		t.Fatalf("timeline has %d years, want 8", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CumulativeRevenue <= pts[i-1].CumulativeRevenue {
			t.Error("revenue not accumulating")
		}
		if pts[i].CumulativeCost < pts[i-1].CumulativeCost {
			t.Error("cost decreased")
		}
		if math.Abs(pts[i].Net-(pts[i].CumulativeRevenue-pts[i].CumulativeCost)) > 1e-9 {
			t.Error("net inconsistent")
		}
	}
}

func TestBreakEvenOrdering(t *testing.T) {
	// The Figure 15(c) mechanism: HEB's higher efficiency, availability
	// and battery lifetime buy an earlier break-even than BaOnly even
	// though the hybrid buffer costs more up front; BaFirst (battery
	// wear like BaOnly plus hybrid capital) breaks even last.
	baOnly := schemeScenario(0.78, 0.975, 4.0, 0)
	baFirst := schemeScenario(0.72, 0.975, 6.0, 0.3)
	scFirst := schemeScenario(0.80, 0.985, 12, 0.3)
	hebD := schemeScenario(0.88, 0.995, 18.8, 0.3)

	be := map[string]float64{
		"BaOnly":  baOnly.BreakEvenYears(),
		"BaFirst": baFirst.BreakEvenYears(),
		"SCFirst": scFirst.BreakEvenYears(),
		"HEB-D":   hebD.BreakEvenYears(),
	}
	for name, v := range be {
		if math.IsInf(v, 1) {
			t.Fatalf("%s never breaks even", name)
		}
	}
	if !(be["HEB-D"] < be["BaOnly"] && be["BaOnly"] < be["SCFirst"] && be["SCFirst"] < be["BaFirst"]) {
		t.Errorf("break-even ordering wrong: %v (want HEB-D < BaOnly < SCFirst < BaFirst)", be)
	}
	// Net profit: HEB well above BaOnly (paper: ≥1.9x).
	ratio := hebD.NetProfit() / baOnly.NetProfit()
	if ratio < 1.5 {
		t.Errorf("HEB/BaOnly net profit ratio %.2f, want > 1.5", ratio)
	}
	t.Logf("break-evens: %v, net ratio %.2f", be, ratio)
}

func TestBreakEvenNeverWithNoRevenue(t *testing.T) {
	s := schemeScenario(0.01, 0.01, 4, 0.3)
	s.SCCostPerKWh = 1e7
	if got := s.BreakEvenYears(); !math.IsInf(got, 1) {
		t.Errorf("hopeless scenario breaks even at %g", got)
	}
}

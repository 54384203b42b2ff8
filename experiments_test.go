package heb

import (
	"math"
	"strings"
	"testing"
	"time"

	"heb/internal/sim"
	"heb/internal/solar"
)

// shortProto trims run costs for the experiment-level tests.
func shortProto() Prototype {
	return DefaultPrototype()
}

func TestFigure1(t *testing.T) {
	r, err := Figure1(1)
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("%d provisioning points, want 4", len(r.Points))
	}
	// MPPU rises and capital cost falls as provisioning shrinks.
	for i := 1; i < 4; i++ {
		if r.Points[i].MPPU < r.Points[i-1].MPPU {
			t.Errorf("MPPU not monotone: %+v", r.Points)
		}
		if r.Points[i].CapitalCost >= r.Points[i-1].CapitalCost {
			t.Errorf("capital cost not falling: %+v", r.Points)
		}
	}
	// Aggressive under-provisioning has high utilization (paper's point).
	if r.Points[3].MPPU < 0.3 {
		t.Errorf("P4 MPPU %g implausibly low", r.Points[3].MPPU)
	}
	var sb strings.Builder
	if err := WriteFigure1(&sb, r); err != nil {
		t.Fatalf("WriteFigure1: %v", err)
	}
	if !strings.Contains(sb.String(), "P4") {
		t.Error("report missing P4 row")
	}
}

func TestFigure3(t *testing.T) {
	rows, err := Figure3(shortProto())
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		// SC beats battery at every load (paper: 90-95% vs <80%).
		if r.SC.OneShot <= r.Battery.OneShot {
			t.Errorf("%d servers: SC %.3f <= battery %.3f", r.Servers, r.SC.OneShot, r.Battery.OneShot)
		}
		if r.SC.OneShot < 0.9 {
			t.Errorf("%d servers: SC efficiency %.3f below 90%%", r.Servers, r.SC.OneShot)
		}
		if r.Battery.OneShot > 0.80 {
			t.Errorf("%d servers: battery one-shot %.3f above 80%%", r.Servers, r.Battery.OneShot)
		}
		// Recovery improves battery efficiency.
		if r.Battery.WithRecovery <= r.Battery.OneShot {
			t.Errorf("%d servers: recovery did not help", r.Servers)
		}
	}
	// Battery one-shot efficiency decreases with server count.
	if !(rows[0].Battery.OneShot > rows[1].Battery.OneShot &&
		rows[1].Battery.OneShot > rows[2].Battery.OneShot) {
		t.Errorf("battery efficiency not decreasing with load: %.3f %.3f %.3f",
			rows[0].Battery.OneShot, rows[1].Battery.OneShot, rows[2].Battery.OneShot)
	}
	var sb strings.Builder
	if err := WriteFigure3(&sb, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4(t *testing.T) {
	rows := Figure4()
	if len(rows) < 4 {
		t.Fatalf("%d technologies", len(rows))
	}
	var sb strings.Builder
	if err := WriteFigure4(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Super-capacitor") {
		t.Error("report missing super-capacitor row")
	}
}

func TestFigure5(t *testing.T) {
	results, err := Figure5(shortProto())
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for _, r := range results {
		if len(r.Battery) < 5 || len(r.SC) < 5 {
			t.Fatalf("%d servers: curves too short (%d, %d)", r.Servers, len(r.Battery), len(r.SC))
		}
		// SC declines linearly across its whole window; the battery's
		// loaded voltage collapses toward cutoff.
		scDrop := float64(r.SC[0] - r.SC[len(r.SC)-1])
		if scDrop < 15 {
			t.Errorf("%d servers: SC window drop %.1fV too small", r.Servers, scDrop)
		}
	}
	// More servers ⇒ deeper initial battery sag (paper's key contrast).
	v1 := float64(results[0].Battery[0])
	v4 := float64(results[2].Battery[0])
	if v4 >= v1 {
		t.Errorf("battery sag does not deepen with load: %g vs %g", v4, v1)
	}
	var sb strings.Builder
	if err := WriteFigure5(&sb, results); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6(t *testing.T) {
	r, err := Figure6(shortProto(), 60)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(r.Runtimes) != 7 {
		t.Fatalf("%d sweep points, want 7", len(r.Runtimes))
	}
	// Interior optimum (neither all-battery nor all-SC).
	if r.BestSplit == 0 || r.BestSplit == 6 {
		t.Errorf("optimum at boundary split %d", r.BestSplit)
	}
	best := r.Runtimes[r.BestSplit]
	if float64(r.Runtimes[6]) > 0.9*float64(best) {
		t.Errorf("all-SC runtime %v too close to optimum %v", r.Runtimes[6], best)
	}
	var sb strings.Builder
	if err := WriteFigure6(&sb, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*optimal") {
		t.Error("report missing optimal marker")
	}
}

func TestFigure12SchemeOrdering(t *testing.T) {
	// The heart of the evaluation: run all six schemes on one large-peak
	// and one small-peak workload and check the paper's ordering.
	p := shortProto()
	pr, _ := WorkloadNamed("PR")
	ms, _ := WorkloadNamed("MS")
	results, err := Figure12(p, Figure12Options{
		Duration:  8 * time.Hour,
		Workloads: []Workload{pr, ms},
	})
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("%d scheme results, want 6", len(results))
	}
	ee := map[SchemeID]float64{}
	life := map[SchemeID]float64{}
	for _, sr := range results {
		ee[sr.Scheme] = sr.Mean(func(r sim.Result) float64 { return r.EnergyEfficiency })
		life[sr.Scheme] = sr.Mean(func(r sim.Result) float64 { return r.BatteryLifetimeYears })
	}
	// Headline orderings (Figure 12(a) and 12(c)).
	if !(ee[HEBD] > ee[BaOnly] && ee[HEBD] > ee[BaFirst]) {
		t.Errorf("HEB-D EE %.3f not above BaOnly %.3f / BaFirst %.3f",
			ee[HEBD], ee[BaOnly], ee[BaFirst])
	}
	if ee[HEBD] < ee[HEBF] {
		t.Errorf("HEB-D EE %.3f below HEB-F %.3f", ee[HEBD], ee[HEBF])
	}
	if life[HEBD] <= life[BaOnly] {
		t.Errorf("HEB-D battery life %.2f not above BaOnly %.2f", life[HEBD], life[BaOnly])
	}
	// Improvement magnitude sanity: HEB-D gains at least 15% EE.
	if ee[HEBD]/ee[BaOnly] < 1.15 {
		t.Errorf("HEB-D EE gain only %.1f%%", (ee[HEBD]/ee[BaOnly]-1)*100)
	}
	var sb strings.Builder
	if err := WriteSchemeComparison(&sb, results, "EE",
		func(r sim.Result) float64 { return r.EnergyEfficiency }); err != nil {
		t.Fatal(err)
	}
	if err := WriteImprovementSummary(&sb, results); err != nil {
		t.Fatal(err)
	}
}

func TestFigure12dREU(t *testing.T) {
	p := shortProto()
	cfg := solar.DefaultConfig()
	results, err := Figure12d(p, cfg, 24*time.Hour, []SchemeID{BaOnly, HEBD})
	if err != nil {
		t.Fatalf("Figure12d: %v", err)
	}
	reu := map[SchemeID]float64{}
	for _, sr := range results {
		reu[sr.Scheme] = sr.Mean(func(r sim.Result) float64 { return r.REU })
	}
	if reu[HEBD] <= reu[BaOnly] {
		t.Errorf("HEB-D REU %.3f not above BaOnly %.3f", reu[HEBD], reu[BaOnly])
	}
	if reu[HEBD]/reu[BaOnly] < 1.15 {
		t.Errorf("REU improvement only %.1f%%", (reu[HEBD]/reu[BaOnly]-1)*100)
	}
}

func TestFigure13RatioSweep(t *testing.T) {
	p := shortProto()
	pts, err := Figure13(p, []float64{0.1, 0.3, 0.7}, 4*time.Hour)
	if err != nil {
		t.Fatalf("Figure13: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	// More SC ⇒ better EE and battery life (paper Figure 13).
	if !(pts[2].EnergyEfficiency > pts[0].EnergyEfficiency) {
		t.Errorf("EE not improving with SC share: %+v", pts)
	}
	if !(pts[2].BatteryLifetimeYears > pts[0].BatteryLifetimeYears) {
		t.Errorf("battery life not improving with SC share: %+v", pts)
	}
	var sb strings.Builder
	if err := WriteFigure13(&sb, pts); err != nil {
		t.Fatal(err)
	}
}

func TestFigure14CapacityGrowth(t *testing.T) {
	p := shortProto()
	pts, err := Figure14(p, []float64{0.4, 0.8}, 4*time.Hour)
	if err != nil {
		t.Fatalf("Figure14: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	if pts[1].EffectiveCapacityWh <= pts[0].EffectiveCapacityWh {
		t.Error("capacity not growing with DoD")
	}
	// Larger capacity: better efficiency and resiliency.
	if pts[1].EnergyEfficiency <= pts[0].EnergyEfficiency {
		t.Errorf("EE not improving with capacity: %+v", pts)
	}
	if pts[1].DowntimeSeconds > pts[0].DowntimeSeconds {
		t.Errorf("downtime not shrinking with capacity: %+v", pts)
	}
	var sb strings.Builder
	if err := WriteFigure14(&sb, pts); err != nil {
		t.Fatal(err)
	}
}

func TestFigure15a(t *testing.T) {
	items, total := Figure15a()
	if len(items) == 0 || total <= 0 {
		t.Fatal("empty breakdown")
	}
	if total > 0.16*4850 {
		t.Errorf("node cost $%.0f above the paper's 16%% bound", total)
	}
}

func TestFigure15b(t *testing.T) {
	pts := Figure15b()
	if len(pts) != 50 {
		t.Fatalf("%d surface points, want 50", len(pts))
	}
	positive := 0
	for _, p := range pts {
		if p.ROI > 0 {
			positive++
		}
	}
	if positive <= len(pts)/2 {
		t.Errorf("only %d/%d ROI points positive", positive, len(pts))
	}
}

func TestFigure15c(t *testing.T) {
	p := shortProto()
	pr, _ := WorkloadNamed("PR")
	results, err := Figure12(p, Figure12Options{
		Duration:  8 * time.Hour,
		Schemes:   []SchemeID{BaOnly, SCFirst, HEBD},
		Workloads: []Workload{pr},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Figure15c(results, 8)
	if err != nil {
		t.Fatalf("Figure15c: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	var baOnly, hebd Figure15cRow
	for _, r := range rows {
		switch r.Scheme {
		case BaOnly:
			baOnly = r
		case HEBD:
			hebd = r
		}
	}
	// BaOnly's lifetime is anchored to the paper's 4-year baseline.
	if math.Abs(baOnly.Scenario.BatteryLifeYears-BaselineBatteryLifeYears) > 1e-9 {
		t.Errorf("BaOnly anchored life %g, want %g",
			baOnly.Scenario.BatteryLifeYears, BaselineBatteryLifeYears)
	}
	// HEB-D breaks even earlier and nets more over 8 years.
	if math.IsInf(hebd.BreakEven, 1) {
		t.Fatal("HEB-D never breaks even")
	}
	if !math.IsInf(baOnly.BreakEven, 1) && hebd.BreakEven >= baOnly.BreakEven {
		t.Errorf("HEB-D break-even %.1f not earlier than BaOnly %.1f",
			hebd.BreakEven, baOnly.BreakEven)
	}
	if hebd.NetProfit <= baOnly.NetProfit {
		t.Errorf("HEB-D net %.0f not above BaOnly %.0f", hebd.NetProfit, baOnly.NetProfit)
	}
	var sb strings.Builder
	if err := WriteFigure15c(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure15c(nil, 8); err == nil {
		t.Error("accepted empty results")
	}
}

func TestWriteTable1(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable1(&sb); err != nil {
		t.Fatal(err)
	}
	for _, abbrev := range []string{"PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS"} {
		if !strings.Contains(sb.String(), abbrev) {
			t.Errorf("table 1 missing %s", abbrev)
		}
	}
}

func TestCompareDeployments(t *testing.T) {
	p := shortProto()
	spec, err := SpecNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	results, err := CompareDeployments(p, spec, 2, 6*time.Hour)
	if err != nil {
		t.Fatalf("CompareDeployments: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("%d deployments, want 3", len(results))
	}
	byTopo := map[string]DeploymentResult{}
	for _, r := range results {
		byTopo[r.Topology.String()] = r
	}
	rack := byTopo["rack-level"]
	cluster := byTopo["cluster-level"]
	ups := byTopo["centralized-UPS"]
	// Rack-level pays no conversion loss; the shared deployments do,
	// with the double-converting UPS paying most.
	if rack.ConversionLoss != 0 {
		t.Errorf("rack-level conversion loss %v, want 0", rack.ConversionLoss)
	}
	if cluster.ConversionLoss <= 0 {
		t.Error("cluster-level shows no conversion loss")
	}
	if ups.ConversionLoss <= cluster.ConversionLoss {
		t.Errorf("UPS loss %v not above cluster-level %v",
			ups.ConversionLoss, cluster.ConversionLoss)
	}
	// Sharing wins on downtime under imbalanced racks: the cluster-level
	// deployment rides out a rack-local burst with the whole pool.
	if cluster.DowntimeServerSeconds > rack.DowntimeServerSeconds {
		t.Errorf("cluster-level downtime %g above rack-level %g despite shared buffers",
			cluster.DowntimeServerSeconds, rack.DowntimeServerSeconds)
	}
	var sb strings.Builder
	if err := WriteDeployments(&sb, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rack-level") {
		t.Error("report missing rack-level row")
	}
	// Validation failures.
	if _, err := CompareDeployments(p, spec, 4, 6*time.Hour); err == nil {
		t.Error("accepted racks not dividing servers")
	}
	if _, err := CompareDeployments(p, spec, 2, 0); err == nil {
		t.Error("accepted zero duration")
	}
}

func TestSchemeResultMeanIsCallStable(t *testing.T) {
	// Values chosen so that summing them in different orders rounds
	// differently in the last bit; Mean must sum in a fixed order or the
	// ±0 sign of "improvement over self" flips between calls (it feeds
	// WriteImprovementSummary, whose output must be run-deterministic).
	sr := SchemeResult{Scheme: BaOnly, Results: map[string]sim.Result{
		"GG": {EnergyEfficiency: 0.1},
		"PR": {EnergyEfficiency: 0.2},
		"WS": {EnergyEfficiency: 0.3},
		"MR": {EnergyEfficiency: 1e-17},
		"NC": {EnergyEfficiency: 0.7},
	}}
	ee := func(r sim.Result) float64 { return r.EnergyEfficiency }
	first := sr.Mean(ee)
	for i := 0; i < 200; i++ {
		if got := sr.Mean(ee); got != first {
			t.Fatalf("call %d: Mean = %v, first call gave %v", i, got, first)
		}
	}
	if s := pctGain(sr.Mean(ee), sr.Mean(ee)); s != "+0.0%" {
		t.Fatalf("self-improvement = %q, want +0.0%%", s)
	}
	if got := (SchemeResult{Scheme: BaOnly}).Mean(ee); got != 0 {
		t.Errorf("empty Mean = %g", got)
	}
}

package heb

import (
	"math"
	"strings"
	"testing"
	"time"

	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/runner"
	"heb/internal/sim"
	"heb/internal/units"
)

func TestSchemeIDStrings(t *testing.T) {
	want := map[SchemeID]string{
		BaOnly: "BaOnly", BaFirst: "BaFirst", SCFirst: "SCFirst",
		HEBF: "HEB-F", HEBS: "HEB-S", HEBD: "HEB-D",
	}
	for id, name := range want {
		if id.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(id), id.String(), name)
		}
	}
	for _, id := range AllSchemes() {
		if got, err := SchemeNamed(want[id]); err != nil || got != id {
			t.Errorf("SchemeNamed(%q) = %v, %v; want %v", want[id], got, err, id)
		}
	}
	if _, err := SchemeNamed("HEB-X"); err == nil || !strings.Contains(err.Error(), "HEB-D") {
		t.Errorf("SchemeNamed(HEB-X) error %v does not list the valid names", err)
	}
	if SchemeID(99).String() == "" {
		t.Error("unknown scheme has empty string")
	}
	if len(AllSchemes()) != 6 {
		t.Errorf("AllSchemes() has %d entries", len(AllSchemes()))
	}
	if BaOnly.Hybrid() {
		t.Error("BaOnly claims to be hybrid")
	}
	if !HEBD.Hybrid() {
		t.Error("HEB-D not hybrid")
	}
}

func TestDefaultPrototypeValid(t *testing.T) {
	if err := DefaultPrototype().Validate(); err != nil {
		t.Fatalf("default prototype invalid: %v", err)
	}
}

func TestPrototypeValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Prototype)
	}{
		{"zero servers", func(p *Prototype) { p.NumServers = 0 }},
		{"zero budget", func(p *Prototype) { p.Budget = 0 }},
		{"zero storage", func(p *Prototype) { p.StorageWh = 0 }},
		{"sc ratio 1", func(p *Prototype) { p.SCRatio = 1 }},
		{"zero strings", func(p *Prototype) { p.BatteryStrings = 0 }},
		{"slot < step", func(p *Prototype) { p.Slot = p.Step / 2 }},
		{"zero pat bins", func(p *Prototype) { p.LimitedPATBins = 0 }},
		{"noise > 1", func(p *Prototype) { p.ProfileNoise = 2 }},
		{"initial soc > 1", func(p *Prototype) { p.InitialSoC = 2 }},
		{"bad battery", func(p *Prototype) { p.Battery.CapacityAh = -1 }},
		{"bad supercap", func(p *Prototype) { p.Supercap.ESR = 0 }},
		{"bad server", func(p *Prototype) { p.Server.IdlePower = 0 }},
		{"bad pat", func(p *Prototype) { p.PATConfig.DeltaR = 0 }},
		{"nan storage", func(p *Prototype) { p.StorageWh = math.NaN() }},
		{"nan coulombic efficiency", func(p *Prototype) { p.Battery.CoulombicEff = math.NaN() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			p := DefaultPrototype()
			m.mut(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", m.name)
			}
		})
	}
}

func TestBuildBatteryPoolCapacity(t *testing.T) {
	p := DefaultPrototype()
	pool, err := p.BuildBatteryPool(100)
	if err != nil {
		t.Fatalf("BuildBatteryPool: %v", err)
	}
	if got := pool.Capacity().Wh(); math.Abs(got-100) > 0.5 {
		t.Errorf("pool capacity %g Wh, want 100", got)
	}
	if pool.Size() != p.BatteryStrings {
		t.Errorf("pool has %d members, want %d", pool.Size(), p.BatteryStrings)
	}
	if _, err := p.BuildBatteryPool(-5); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestBuildBatteryPoolScalesResistance(t *testing.T) {
	p := DefaultPrototype()
	small, err := p.BuildBatteryPool(30)
	if err != nil {
		t.Fatal(err)
	}
	big, err := p.BuildBatteryPool(300)
	if err != nil {
		t.Fatal(err)
	}
	rs := small.Members()[0].(*esd.Battery).Config()
	rb := big.Members()[0].(*esd.Battery).Config()
	if rs.InternalOhm <= rb.InternalOhm {
		t.Errorf("small battery resistance %g not above big battery %g",
			rs.InternalOhm, rb.InternalOhm)
	}
	// Resistance × capacity should be conserved (same chemistry).
	if math.Abs(rs.InternalOhm*rs.CapacityAh-rb.InternalOhm*rb.CapacityAh) > 1e-9 {
		t.Error("resistance does not scale inversely with capacity")
	}
}

func TestBuildSupercapPoolCapacity(t *testing.T) {
	p := DefaultPrototype()
	pool, err := p.BuildSupercapPool(50)
	if err != nil {
		t.Fatalf("BuildSupercapPool: %v", err)
	}
	if got := pool.Capacity().Wh(); math.Abs(got-50) > 0.5 {
		t.Errorf("pool capacity %g Wh, want 50", got)
	}
	// Zero capacity: no pool at all (battery-only systems).
	none, err := p.BuildSupercapPool(0)
	if err != nil || none != nil {
		t.Errorf("zero capacity: pool %v err %v, want nil/nil", none, err)
	}
	if _, err := p.BuildSupercapPool(-1); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestBuildPoolsEqualTotalCapacity(t *testing.T) {
	// Section 7: all schemes get the same total capacity.
	p := DefaultPrototype()
	totals := map[SchemeID]float64{}
	for _, id := range AllSchemes() {
		ba, sc, err := p.BuildPools(id)
		if err != nil {
			t.Fatalf("BuildPools(%v): %v", id, err)
		}
		total := ba.Capacity().Wh()
		if sc != nil {
			total += sc.Capacity().Wh()
		}
		totals[id] = total
		if id == BaOnly && sc != nil {
			t.Error("BaOnly got an SC pool")
		}
		if id != BaOnly && sc == nil {
			t.Errorf("%v missing its SC pool", id)
		}
	}
	for id, total := range totals {
		if math.Abs(total-p.StorageWh) > 1 {
			t.Errorf("%v total capacity %g Wh, want %g", id, total, p.StorageWh)
		}
	}
}

func TestBuildSchemePredictors(t *testing.T) {
	p := DefaultPrototype()
	// HEB-F gets naive predictors (its defining limitation).
	_, peak, _, err := p.BuildScheme(HEBF, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if peak.Name() != "naive" {
		t.Errorf("HEB-F peak predictor %q, want naive", peak.Name())
	}
	// The others use Holt-Winters.
	_, peak, _, err = p.BuildScheme(HEBD, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if peak.Name() != "holt-winters" {
		t.Errorf("HEB-D peak predictor %q, want holt-winters", peak.Name())
	}
	if _, _, _, err := p.BuildScheme(SchemeID(77), 100, 200); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	p := DefaultPrototype()
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(HEBD, w.WithDuration(time.Hour), RunOptions{Duration: time.Hour})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Scheme != "HEB-D" {
		t.Errorf("scheme label %q", res.Scheme)
	}
	if res.Steps != 3600 {
		t.Errorf("steps %d, want 3600", res.Steps)
	}
	if res.EnergyEfficiency <= 0 || res.EnergyEfficiency > 1 {
		t.Errorf("EE %g out of range", res.EnergyEfficiency)
	}
	if res.SlotCount != 6 {
		t.Errorf("slots %d, want 6 (1h / 10min)", res.SlotCount)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := DefaultPrototype()
	w, _ := WorkloadNamed("WC")
	a, err := p.Run(HEBD, w.WithDuration(time.Hour), RunOptions{Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(HEBD, w.WithDuration(time.Hour), RunOptions{Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyEfficiency != b.EnergyEfficiency ||
		a.DowntimeServerSeconds != b.DowntimeServerSeconds ||
		a.BatteryWear.WeightedAh != b.BatteryWear.WeightedAh {
		t.Errorf("identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestRunBaOnlyHasNoSCService(t *testing.T) {
	p := DefaultPrototype()
	w, _ := WorkloadNamed("DA")
	res, err := p.Run(BaOnly, w.WithDuration(time.Hour), RunOptions{Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedFromSupercap != 0 {
		t.Errorf("BaOnly served %v from SC", res.ServedFromSupercap)
	}
}

func TestRunBudgetOverride(t *testing.T) {
	p := DefaultPrototype()
	w, _ := WorkloadNamed("PR")
	generous, err := p.Run(SCFirst, w.WithDuration(time.Hour), RunOptions{Duration: time.Hour, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if generous.MismatchSteps != 0 {
		t.Errorf("1kW budget still saw %d mismatch steps", generous.MismatchSteps)
	}
}

func TestRunRejectsInvalidPrototype(t *testing.T) {
	p := DefaultPrototype()
	p.NumServers = 0
	w, _ := WorkloadNamed("PR")
	if _, err := p.Run(HEBD, w, RunOptions{}); err == nil {
		t.Error("Run accepted invalid prototype")
	}
}

func TestRunRenewableFeed(t *testing.T) {
	p := DefaultPrototype()
	w, _ := WorkloadNamed("MS")
	samples := make([]units.Power, 720)
	for i := range samples {
		samples[i] = 400
	}
	feed := power.MustNewTraceFeed("solar", 10*time.Second, samples)
	res, err := p.Run(SCFirst, w.WithDuration(2*time.Hour), RunOptions{
		Duration: 2 * time.Hour, Feed: feed, Renewable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RenewableGenerated <= 0 {
		t.Error("no renewable generation recorded")
	}
	if res.REU <= 0 || res.REU > 1 {
		t.Errorf("REU %g out of range", res.REU)
	}
}

func TestHybridBeatsBatteryOnlyHeadline(t *testing.T) {
	// The paper's core claims at the prototype scale, on one large-peak
	// workload: HEB-D beats BaOnly on EE, downtime, and battery life.
	p := DefaultPrototype()
	w, _ := WorkloadNamed("PR")
	run := func(id SchemeID) sim.Result {
		res, err := p.Run(id, w.WithDuration(12*time.Hour), RunOptions{Duration: 12 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(BaOnly)
	hebd := run(HEBD)
	if hebd.EnergyEfficiency <= base.EnergyEfficiency {
		t.Errorf("HEB-D EE %.3f <= BaOnly %.3f", hebd.EnergyEfficiency, base.EnergyEfficiency)
	}
	if hebd.DowntimeServerSeconds >= base.DowntimeServerSeconds {
		t.Errorf("HEB-D downtime %g >= BaOnly %g",
			hebd.DowntimeServerSeconds, base.DowntimeServerSeconds)
	}
	if hebd.BatteryLifetimeYears <= base.BatteryLifetimeYears {
		t.Errorf("HEB-D battery life %g <= BaOnly %g",
			hebd.BatteryLifetimeYears, base.BatteryLifetimeYears)
	}
}

func TestRunTableOverrideAndSink(t *testing.T) {
	p := DefaultPrototype()
	w, _ := WorkloadNamed("PR")

	// Sink captures HEB-D's table after the run.
	var learned *pat.Table
	_, err := p.Run(HEBD, w.WithDuration(time.Hour), RunOptions{
		Duration:  time.Hour,
		TableSink: func(tb *pat.Table) { learned = tb },
	})
	if err != nil {
		t.Fatal(err)
	}
	if learned == nil || learned.Len() == 0 {
		t.Fatal("no table captured from HEB-D run")
	}

	// Warm-start a second run from the captured table.
	var second *pat.Table
	_, err = p.Run(HEBD, w.WithDuration(time.Hour), RunOptions{
		Duration:  time.Hour,
		Table:     learned,
		TableSink: func(tb *pat.Table) { second = tb },
	})
	if err != nil {
		t.Fatal(err)
	}
	if second != learned {
		t.Error("warm-started run did not use the supplied table")
	}

	// Schemes without a table ignore both options.
	var none *pat.Table
	_, err = p.Run(BaOnly, w.WithDuration(time.Hour), RunOptions{
		Duration:  time.Hour,
		Table:     learned,
		TableSink: func(tb *pat.Table) { none = tb },
	})
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Error("BaOnly produced a table")
	}
}

// TestRunKeyIgnoresTraceCell: the trace group is a label, so two
// prototypes differing only in it share a run key, while a real
// configuration change still moves the key's cfg= hash.
func TestRunKeyIgnoresTraceCell(t *testing.T) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	key := func(p Prototype) string { return p.runKey(HEBD, pr, time.Hour, RunOptions{}) }
	a, b := DefaultPrototype(), DefaultPrototype()
	a.TraceCell, b.TraceCell = "fig12a", "summary"
	if key(a) != key(b) || key(a) != key(DefaultPrototype()) {
		t.Fatalf("trace label changed the run key:\n%s\n%s", key(a), key(b))
	}
	b.PATConfig.DeltaR *= 2
	if key(a) == key(b) {
		t.Fatal("a PAT tuning change left the run key unchanged")
	}
}

// TestKeysIgnoreWiring: a prototype with every per-run wiring field set
// keys its runs and its pooled state like a bare one. The pool key also
// ignores the seed, which is rebound per run, but not a structural
// change such as the PAT tuning.
func TestKeysIgnoreWiring(t *testing.T) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	bare, wired := DefaultPrototype(), DefaultPrototype()
	wired.Capture = obs.NewCapture()
	wired.Progress = &runner.Progress{}
	wired.Audits = obs.NewAuditLog()
	wired.Alerts = alerts.NewLog()
	wired.Tracer = obs.NewTracer()
	wired.TraceCell = "fig12a"
	if a, b := bare.runKey(HEBD, pr, time.Hour, RunOptions{}), wired.runKey(HEBD, pr, time.Hour, RunOptions{}); a != b {
		t.Errorf("wiring changed the run key:\n%s\n%s", a, b)
	}
	if a, b := bare.poolKey(HEBD, bare.Budget), wired.poolKey(HEBD, wired.Budget); a != b {
		t.Errorf("wiring changed the pool key:\n%+v\n%+v", a, b)
	}
	reseeded := bare
	reseeded.Seed++
	if bare.poolKey(HEBD, bare.Budget) != reseeded.poolKey(HEBD, reseeded.Budget) {
		t.Error("a seed change moved the pool key")
	}
	retuned := bare
	retuned.PATConfig.DeltaR *= 2
	if bare.poolKey(HEBD, bare.Budget) == retuned.poolKey(HEBD, retuned.Budget) {
		t.Error("a PAT tuning change left the pool key unchanged")
	}
}

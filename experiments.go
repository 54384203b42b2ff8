package heb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"heb/internal/esd"
	"heb/internal/obs/prof"
	"heb/internal/power"
	"heb/internal/sim"
	"heb/internal/solar"
	"heb/internal/tco"
	"heb/internal/units"
	"heb/internal/workload"
)

// This file maps every table and figure of the paper's evaluation to a
// runner. DESIGN.md carries the full experiment index.

// Figure1Result is the Figure 1(a) provisioning analysis.
type Figure1Result struct {
	Points []sim.ProvisioningPoint
}

// Figure1 evaluates MPPU and capital cost for the P1-P4 provisioning
// levels (100/80/60/40% of nameplate) on a Google-cluster-like trace.
func Figure1(seed int64) (Figure1Result, error) {
	s, err := workload.ClusterTrace(seed, 7*24*time.Hour, time.Minute)
	if err != nil {
		return Figure1Result{}, err
	}
	pts := sim.ProvisioningAnalysis(s.Values, 100*units.Kilowatt,
		[]float64{1.0, 0.8, 0.6, 0.4}, 15)
	return Figure1Result{Points: pts}, nil
}

// Figure3Row is one bar group of the Figure 3 characterization.
type Figure3Row struct {
	Servers int
	Battery sim.EfficiencyCharacterization
	SC      sim.EfficiencyCharacterization
}

// Figure3 characterizes round-trip efficiency, recovery gain and on/off
// waste for one, two and four servers on fresh prototype-scale devices.
func Figure3(p Prototype) ([]Figure3Row, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The characterization test-bed (paper Figure 2) compares the two
	// device types head-to-head, so each device gets the full storage
	// capacity rather than its prototype share.
	var rows []Figure3Row
	var err error
	prof.DoPhase(prof.PhaseCharacterize, func() {
		for _, n := range []int{1, 2, 4} {
			load := units.Power(float64(n) * float64(p.Server.PeakPower))
			var ba, sc *esd.Pool
			if ba, err = p.BuildBatteryPool(p.StorageWh); err != nil {
				return
			}
			if sc, err = p.BuildSupercapPool(p.StorageWh); err != nil {
				return
			}
			rows = append(rows, Figure3Row{
				Servers: n,
				Battery: sim.CharacterizeEfficiency(ba, load, 2, time.Hour, p.Server.BootEnergy),
				SC:      sim.CharacterizeEfficiency(sc, load, 2, time.Hour, p.Server.BootEnergy),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure4Row is one technology of the cost comparison.
type Figure4Row struct {
	Technology tco.Technology
	Amortized  float64
}

// Figure4 returns the storage technology cost table.
func Figure4() []Figure4Row {
	techs := tco.Technologies()
	rows := make([]Figure4Row, len(techs))
	for i, t := range techs {
		rows[i] = Figure4Row{Technology: t, Amortized: t.AmortizedCostPerKWhCycle()}
	}
	return rows
}

// Figure5Result holds discharge voltage curves per server count.
type Figure5Result struct {
	Servers int
	Battery []units.Voltage
	SC      []units.Voltage
}

// Figure5 records battery and SC discharge voltage curves for one, two
// and four servers of constant load.
func Figure5(p Prototype) ([]Figure5Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var out []Figure5Result
	for _, n := range []int{1, 2, 4} {
		load := units.Power(float64(n) * float64(p.Server.PeakPower))
		ba, err := p.BuildBatteryPool(p.StorageWh)
		if err != nil {
			return nil, err
		}
		sc, err := p.BuildSupercapPool(p.StorageWh)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure5Result{
			Servers: n,
			Battery: sim.DischargeCurve(ba, load, time.Second, 4*time.Hour),
			SC:      sim.DischargeCurve(sc, load, time.Second, 4*time.Hour),
		})
	}
	return out, nil
}

// Figure6Result is the Figure 6 split sweep: Runtimes[i] is the sustained
// cluster runtime with i servers on the SC pool.
type Figure6Result struct {
	PerServer units.Power
	Runtimes  []time.Duration
	BestSplit int
}

// Figure6 sweeps every battery/SC server split at constant load and finds
// the runtime-maximizing assignment.
func Figure6(p Prototype, perServer units.Power) (Figure6Result, error) {
	if err := p.Validate(); err != nil {
		return Figure6Result{}, err
	}
	newBA := func() esd.Device {
		pool, err := p.BuildBatteryPool(p.StorageWh * (1 - p.SCRatio))
		if err != nil {
			panic(err) // config already validated
		}
		return pool
	}
	newSC := func() esd.Device {
		pool, err := p.BuildSupercapPool(p.StorageWh * p.SCRatio)
		if err != nil {
			panic(err)
		}
		return pool
	}
	runtimes, err := sim.SplitSweep(newBA, newSC, p.NumServers, perServer, time.Second, 12*time.Hour)
	if err != nil {
		return Figure6Result{}, err
	}
	best := 0
	for i, rt := range runtimes {
		if rt > runtimes[best] {
			best = i
		}
	}
	return Figure6Result{PerServer: perServer, Runtimes: runtimes, BestSplit: best}, nil
}

// SchemeResult pairs a scheme with its per-workload results.
type SchemeResult struct {
	Scheme  SchemeID
	Results map[string]sim.Result // keyed by workload name
}

// Mean averages a metric over the workloads.
func (s SchemeResult) Mean(metric func(sim.Result) float64) float64 {
	if len(s.Results) == 0 {
		return 0
	}
	// Sum in sorted-key order: map iteration order is randomized and float
	// addition is not associative, so the last bit of the mean would
	// otherwise vary between calls within one process.
	names := make([]string, 0, len(s.Results))
	for name := range s.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += metric(s.Results[name])
	}
	return sum / float64(len(s.Results))
}

// Figure12Options tune the scheme comparison runs.
type Figure12Options struct {
	// Duration is simulated time per workload (default 6h).
	Duration time.Duration
	// Budget overrides the prototype budget (Figure 12(b) lowers it to
	// force downtime).
	Budget units.Power
	// Schemes defaults to all six.
	Schemes []SchemeID
	// Workloads defaults to the eight Table 1 workloads.
	Workloads []Workload
	// Workers bounds the sweep's worker pool (<= 0 means GOMAXPROCS).
	// Results are identical for any worker count; see internal/runner.
	Workers int
}

// Figure12 runs the scheme × workload grid that Figures 12(a)-(c) report:
// energy efficiency, server downtime and battery lifetime per scheme.
func Figure12(p Prototype, opts Figure12Options) ([]SchemeResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Duration == 0 {
		opts.Duration = 6 * time.Hour
	}
	if len(opts.Schemes) == 0 {
		opts.Schemes = AllSchemes()
	}
	if len(opts.Workloads) == 0 {
		opts.Workloads = EvaluationWorkloads()
	}
	runs := schemeGrid(p, opts.Schemes, opts.Workloads, RunOptions{Duration: opts.Duration, Budget: opts.Budget})
	results, err := sweep(runs, opts.Workers)
	if err != nil {
		return nil, err
	}
	return foldSchemes(opts.Schemes, opts.Workloads, results), nil
}

// schemeGrid declares one run per (scheme, workload) cell, scheme-major,
// each over opts.Duration.
func schemeGrid(p Prototype, schemes []SchemeID, workloads []Workload, opts RunOptions) []sweepRun {
	runs := make([]sweepRun, 0, len(schemes)*len(workloads))
	for _, id := range schemes {
		for _, w := range workloads {
			runs = append(runs, sweepRun{p, id, w.WithDuration(opts.Duration), opts})
		}
	}
	return runs
}

// foldSchemes groups the results of a schemeGrid by scheme.
func foldSchemes(schemes []SchemeID, workloads []Workload, results []sim.Result) []SchemeResult {
	out := make([]SchemeResult, 0, len(schemes))
	for si, id := range schemes {
		sr := SchemeResult{Scheme: id, Results: make(map[string]sim.Result, len(workloads))}
		for wi, w := range workloads {
			sr.Results[w.Name()] = results[si*len(workloads)+wi]
		}
		out = append(out, sr)
	}
	return out
}

// reuWorkloads are the Figure 12(d) workloads: PR and WC suffice for REU.
func reuWorkloads() []Workload { return EvaluationWorkloads()[:2] }

// solarGrid declares the Figure 12(d) runs of schemes on p: the
// reuWorkloads powered by the solar trace samples instead of utility.
// The trace is shared read-only; each run gets its own stateful feed.
func solarGrid(p Prototype, schemes []SchemeID, samples []units.Power, duration time.Duration) ([]sweepRun, error) {
	runs := schemeGrid(p, schemes, reuWorkloads(), RunOptions{Duration: duration, Renewable: true})
	for i := range runs {
		feed, err := power.NewTraceFeed("solar", 10*time.Second, samples)
		if err != nil {
			return nil, err
		}
		runs[i].opts.Feed = feed
	}
	return runs, nil
}

// solarSamples synthesizes cfg's generation trace over duration on the
// 10 s grid the solar feeds replay.
func solarSamples(cfg solar.Config, duration time.Duration) ([]units.Power, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	series, err := cfg.Generate(duration, 10*time.Second)
	if err != nil {
		return nil, err
	}
	samples := make([]units.Power, len(series.Values))
	for i, v := range series.Values {
		samples[i] = units.Power(v)
	}
	return samples, nil
}

// Figure12d runs the renewable-energy-utilization study: the prototype
// powered by the rooftop solar array instead of utility.
func Figure12d(p Prototype, solarCfg solar.Config, duration time.Duration, schemes []SchemeID) ([]SchemeResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if duration == 0 {
		duration = 24 * time.Hour
	}
	if len(schemes) == 0 {
		schemes = AllSchemes()
	}
	samples, err := solarSamples(solarCfg, duration)
	if err != nil {
		return nil, err
	}
	runs, err := solarGrid(p, schemes, samples, duration)
	if err != nil {
		return nil, err
	}
	results, err := sweep(runs, 0)
	if err != nil {
		return nil, err
	}
	return foldSchemes(schemes, reuWorkloads(), results), nil
}

// RatioPoint is one capacity ratio of the Figure 13 sweep.
type RatioPoint struct {
	SCRatio              float64
	EnergyEfficiency     float64
	DowntimeSeconds      float64
	BatteryLifetimeYears float64
	REU                  float64
}

// Figure13 keeps total capacity constant and sweeps the SC:battery ratio,
// running HEB-D and reporting the four headline metrics per ratio.
func Figure13(p Prototype, ratios []float64, duration time.Duration) ([]RatioPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	if duration == 0 {
		duration = 6 * time.Hour
	}
	protos := make([]Prototype, len(ratios))
	for i, r := range ratios {
		protos[i] = p
		protos[i].SCRatio = r
	}
	da, reu, err := capacitySweep(p, protos, duration)
	if err != nil {
		return nil, err
	}
	out := make([]RatioPoint, len(ratios))
	for i, r := range ratios {
		out[i] = RatioPoint{
			SCRatio:              r,
			EnergyEfficiency:     da[i].EnergyEfficiency,
			DowntimeSeconds:      da[i].DowntimeServerSeconds,
			BatteryLifetimeYears: da[i].BatteryLifetimeYears,
			REU:                  reu[i],
		}
	}
	return out, nil
}

// capacitySweep runs every point of a Figure 13/14 sweep as one cell
// list. Per prototype it returns HEB-D's peak-shaving result on the
// large-peak DA workload over duration, and its mean REU over the
// Figure 12(d) solar runs, which need at least a full solar day
// regardless of the peak-shaving run length. The solar array is sized to
// p's cluster.
func capacitySweep(p Prototype, protos []Prototype, duration time.Duration) (da []sim.Result, reu []float64, err error) {
	solarCfg := solar.DefaultConfig()
	solarCfg.PeakPower = units.Power(float64(p.NumServers)*float64(p.Server.PeakPower)) * 11 / 10
	reuDur := max(duration, 24*time.Hour)
	samples, err := solarSamples(solarCfg, reuDur)
	if err != nil {
		return nil, nil, err
	}
	w, err := WorkloadNamed("DA")
	if err != nil {
		return nil, nil, err
	}
	var runs []sweepRun
	for _, pp := range protos {
		solarRuns, err := solarGrid(pp, []SchemeID{HEBD}, samples, reuDur)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, sweepRun{pp, HEBD, w.WithDuration(duration), RunOptions{Duration: duration}})
		runs = append(runs, solarRuns...)
	}
	results, err := sweep(runs, 0)
	if err != nil {
		return nil, nil, err
	}
	stride := len(runs) / len(protos)
	for i := range protos {
		cell := results[i*stride : (i+1)*stride]
		sr := foldSchemes([]SchemeID{HEBD}, reuWorkloads(), cell[1:])[0]
		da = append(da, cell[0])
		reu = append(reu, sr.Mean(func(r sim.Result) float64 { return r.REU }))
	}
	return da, reu, nil
}

// GrowthPoint is one capacity level of the Figure 14 sweep.
type GrowthPoint struct {
	DoD                  float64
	EffectiveCapacityWh  float64
	EnergyEfficiency     float64
	DowntimeSeconds      float64
	BatteryLifetimeYears float64
	REU                  float64
}

// Figure14 keeps the 3:7 ratio and mimics capacity growth by lowering the
// DoD threshold (the paper sweeps DoD 40-80%; lower DoD = less usable
// capacity, so sweeping it emulates different installed capacities).
func Figure14(p Prototype, dods []float64, duration time.Duration) ([]GrowthPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(dods) == 0 {
		dods = []float64{0.4, 0.5, 0.6, 0.7, 0.8}
	}
	if duration == 0 {
		duration = 6 * time.Hour
	}
	protos := make([]Prototype, len(dods))
	for i, dod := range dods {
		pp := p
		pp.Battery.DoD = dod
		pp.Supercap.DoD = dod
		// StorageWh is specified at the configured DoD; scale the
		// installed capacity with the usable window.
		pp.StorageWh = p.StorageWh * dod / p.Battery.DoD
		protos[i] = pp
	}
	da, reu, err := capacitySweep(p, protos, duration)
	if err != nil {
		return nil, err
	}
	out := make([]GrowthPoint, len(dods))
	for i, dod := range dods {
		out[i] = GrowthPoint{
			DoD:                  dod,
			EffectiveCapacityWh:  protos[i].StorageWh,
			EnergyEfficiency:     da[i].EnergyEfficiency,
			DowntimeSeconds:      da[i].DowntimeServerSeconds,
			BatteryLifetimeYears: da[i].BatteryLifetimeYears,
			REU:                  reu[i],
		}
	}
	return out, nil
}

// Figure15a returns the prototype cost breakdown.
func Figure15a() ([]tco.BreakdownItem, float64) {
	items := tco.PrototypeBreakdown()
	return items, tco.BreakdownTotal(items)
}

// Figure15b evaluates the ROI surface over the paper's C_cap range.
func Figure15b() []tco.ROIPoint {
	params := tco.DefaultROIParams()
	caps := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	hours := []float64{0.25, 0.5, 1, 2, 4}
	return params.ROISurface(caps, hours)
}

// Figure15cRow is one scheme's eight-year peak-shaving economics.
type Figure15cRow struct {
	Scheme    SchemeID
	Scenario  tco.ShavingScenario
	BreakEven float64
	NetProfit float64
	Timeline  []tco.YearPoint
}

// BaselineBatteryLifeYears anchors the Figure 15(c) economics: the paper
// (and [8]) assume the homogeneous battery buffer lives 4 years; the
// simulator's compressed duty cycle yields meaningful *relative*
// lifetimes, which are rescaled onto this anchor.
const BaselineBatteryLifeYears = 4.0

// Figure15c builds the eight-year peak-shaving comparison from measured
// scheme behaviour: each scheme's efficiency, availability and battery
// lifetime (from Figure 12 runs) parameterize its revenue stream and
// replacement reserve. Battery lifetimes are normalized so BaOnly's
// measured life maps to the paper's 4-year baseline.
func Figure15c(results []SchemeResult, horizonYears int) ([]Figure15cRow, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("heb: figure 15(c) needs scheme results")
	}
	life := func(sr SchemeResult) float64 {
		return sr.Mean(func(r sim.Result) float64 { return r.BatteryLifetimeYears })
	}
	baseLife := 0.0
	for _, sr := range results {
		if sr.Scheme == BaOnly {
			baseLife = life(sr)
			break
		}
	}
	rows := make([]Figure15cRow, 0, len(results))
	for _, sr := range results {
		s := tco.DefaultShavingScenario()
		if horizonYears > 0 {
			s.Years = horizonYears
		}
		if !sr.Scheme.Hybrid() {
			s.SCFraction = 0
		}
		s.Efficiency = clampUnit(sr.Mean(func(r sim.Result) float64 { return r.EnergyEfficiency }), 0.05, 1)
		s.Availability = clampUnit(1-sr.Mean(func(r sim.Result) float64 { return r.DowntimeFraction }), 0.05, 1)
		s.BatteryLifeYears = math.Max(0.5, life(sr))
		if baseLife > 0 {
			s.BatteryLifeYears = math.Max(0.5, BaselineBatteryLifeYears*life(sr)/baseLife)
		}
		// Calendar aging bounds any battery regardless of duty.
		s.BatteryLifeYears = math.Min(s.BatteryLifeYears, 12)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("heb: scenario for %v: %w", sr.Scheme, err)
		}
		rows = append(rows, Figure15cRow{
			Scheme:    sr.Scheme,
			Scenario:  s,
			BreakEven: s.BreakEvenYears(),
			NetProfit: s.NetProfit(),
			Timeline:  s.Timeline(),
		})
	}
	return rows, nil
}

func clampUnit(v, lo, hi float64) float64 {
	return units.Clamp(v, lo, hi)
}

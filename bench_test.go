package heb

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md carries the index). Each benchmark runs its
// experiment end-to-end per iteration and reports the headline numbers as
// custom metrics, so `go test -bench=. -benchmem` reproduces the paper's
// results alongside the performance profile of the simulator itself.
//
// Ablation benches beyond the paper (predictor choice, PAT learning step,
// control slot length, deployment topology) sit at the bottom.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/sim"
	"heb/internal/solar"
	"heb/internal/units"
)

// benchDuration keeps per-iteration cost moderate while spanning several
// large-peak periods.
const benchDuration = 4 * time.Hour

func BenchmarkTable1WorkloadGeneration(b *testing.B) {
	p := DefaultPrototype()
	for i := 0; i < b.N; i++ {
		for _, w := range EvaluationWorkloads() {
			if _, err := w.WithDuration(time.Hour).Trace(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure1ProvisioningMPPU(b *testing.B) {
	var last Figure1Result
	for i := 0; i < b.N; i++ {
		r, err := Figure1(42)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if len(last.Points) == 4 {
		b.ReportMetric(last.Points[3].MPPU, "MPPU@40%")
		b.ReportMetric(last.Points[1].MPPU, "MPPU@80%")
	}
}

func BenchmarkFigure3Efficiency(b *testing.B) {
	p := DefaultPrototype()
	var rows []Figure3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure3(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 3 {
		b.ReportMetric(rows[0].Battery.OneShot, "battEff@1srv")
		b.ReportMetric(rows[2].Battery.OneShot, "battEff@4srv")
		b.ReportMetric(rows[0].SC.OneShot, "scEff@1srv")
	}
}

func BenchmarkFigure4CostComparison(b *testing.B) {
	var rows []Figure4Row
	for i := 0; i < b.N; i++ {
		rows = Figure4()
	}
	for _, r := range rows {
		if r.Technology.Name == "Super-capacitor" {
			b.ReportMetric(r.Amortized, "scAmortized$/kWh/cyc")
		}
	}
}

func BenchmarkFigure5Discharge(b *testing.B) {
	p := DefaultPrototype()
	var results []Figure5Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = Figure5(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(results) == 3 && len(results[2].Battery) > 0 {
		b.ReportMetric(float64(results[2].Battery[0]), "battV@4srv")
		b.ReportMetric(float64(results[2].SC[0]), "scV@4srv")
	}
}

func BenchmarkFigure6OptimalSplit(b *testing.B) {
	p := DefaultPrototype()
	var r Figure6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = Figure6(p, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BestSplit), "optimalSCServers")
	if best := r.Runtimes[r.BestSplit]; best > 0 {
		b.ReportMetric(float64(r.Runtimes[len(r.Runtimes)-1])/float64(best), "allSCvsBest")
	}
}

// benchFigure12 runs the scheme grid once per iteration and reports the
// HEB-D-over-BaOnly improvement for the given metric.
func benchFigure12(b *testing.B, budgetScale int, metricName string, metric func(sim.Result) float64, lowerIsBetter bool) {
	b.Helper()
	p := DefaultPrototype()
	opts := Figure12Options{
		Duration: benchDuration,
		Budget:   p.Budget * units.Power(budgetScale) / 100,
		Schemes:  []SchemeID{BaOnly, SCFirst, HEBD},
	}
	var results []SchemeResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = Figure12(p, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	vals := map[SchemeID]float64{}
	for _, sr := range results {
		vals[sr.Scheme] = sr.Mean(metric)
	}
	b.ReportMetric(vals[HEBD], metricName+"/HEB-D")
	b.ReportMetric(vals[BaOnly], metricName+"/BaOnly")
	if vals[BaOnly] != 0 {
		gain := vals[HEBD]/vals[BaOnly] - 1
		if lowerIsBetter {
			gain = 1 - vals[HEBD]/vals[BaOnly]
		}
		b.ReportMetric(gain*100, metricName+"Gain%")
	}
}

func BenchmarkFigure12aEnergyEfficiency(b *testing.B) {
	benchFigure12(b, 100, "EE", func(r sim.Result) float64 { return r.EnergyEfficiency }, false)
}

func BenchmarkFigure12bDowntime(b *testing.B) {
	benchFigure12(b, 85, "downtime", func(r sim.Result) float64 { return r.DowntimeServerSeconds }, true)
}

func BenchmarkFigure12cLifetime(b *testing.B) {
	benchFigure12(b, 100, "battLife", func(r sim.Result) float64 { return r.BatteryLifetimeYears }, false)
}

func BenchmarkFigure12dREU(b *testing.B) {
	p := DefaultPrototype()
	cfg := solar.DefaultConfig()
	var results []SchemeResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = Figure12d(p, cfg, 24*time.Hour, []SchemeID{BaOnly, HEBD})
		if err != nil {
			b.Fatal(err)
		}
	}
	reu := map[SchemeID]float64{}
	for _, sr := range results {
		reu[sr.Scheme] = sr.Mean(func(r sim.Result) float64 { return r.REU })
	}
	b.ReportMetric(reu[HEBD], "REU/HEB-D")
	b.ReportMetric(reu[BaOnly], "REU/BaOnly")
	if reu[BaOnly] > 0 {
		b.ReportMetric((reu[HEBD]/reu[BaOnly]-1)*100, "REUGain%")
	}
}

func BenchmarkFigure13CapacityRatio(b *testing.B) {
	p := DefaultPrototype()
	var pts []RatioPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = Figure13(p, []float64{0.1, 0.3, 0.7}, 3*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) == 3 {
		b.ReportMetric(pts[2].EnergyEfficiency/pts[0].EnergyEfficiency, "EE(7:3)/(1:9)")
	}
}

func BenchmarkFigure14CapacityGrowth(b *testing.B) {
	p := DefaultPrototype()
	var pts []GrowthPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = Figure14(p, []float64{0.4, 0.8}, 3*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) == 2 {
		b.ReportMetric(pts[1].EnergyEfficiency-pts[0].EnergyEfficiency, "EEgainDoD40→80")
	}
}

func BenchmarkFigure15aCostBreakdown(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		_, total = Figure15a()
	}
	b.ReportMetric(total, "nodeCost$")
}

func BenchmarkFigure15bROI(b *testing.B) {
	var positive int
	for i := 0; i < b.N; i++ {
		pts := Figure15b()
		positive = 0
		for _, p := range pts {
			if p.ROI > 0 {
				positive++
			}
		}
	}
	b.ReportMetric(float64(positive), "positiveROIpoints")
}

func BenchmarkFigure15cPeakShaving(b *testing.B) {
	p := DefaultPrototype()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	var rows []Figure15cRow
	for i := 0; i < b.N; i++ {
		results, err := Figure12(p, Figure12Options{
			Duration:  benchDuration,
			Schemes:   []SchemeID{BaOnly, SCFirst, HEBD},
			Workloads: []Workload{pr},
		})
		if err != nil {
			b.Fatal(err)
		}
		rows, err = Figure15c(results, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Scheme {
		case BaOnly:
			b.ReportMetric(r.BreakEven, "breakEvenY/BaOnly")
		case HEBD:
			b.ReportMetric(r.BreakEven, "breakEvenY/HEB-D")
		}
	}
}

// --- Ablations beyond the paper ---

// BenchmarkAblationPredictor compares HEB-D's metrics when driven by the
// naive predictor instead of Holt-Winters (prediction-quality ablation;
// the paper approximates this via HEB-F).
func BenchmarkAblationPredictor(b *testing.B) {
	p := DefaultPrototype()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	var hw, naive sim.Result
	for i := 0; i < b.N; i++ {
		hw, err = p.Run(HEBD, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
		naive, err = p.Run(HEBF, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hw.PeakPredictionMAPE, "MAPE/holt-winters")
	b.ReportMetric(naive.PeakPredictionMAPE, "MAPE/naive")
	b.ReportMetric(hw.EnergyEfficiency-naive.EnergyEfficiency, "EEdelta")
}

// BenchmarkAblationSlotLength compares 5/10/20-minute control slots.
func BenchmarkAblationSlotLength(b *testing.B) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	slots := []time.Duration{5 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	results := make([]sim.Result, len(slots))
	for i := 0; i < b.N; i++ {
		for j, slot := range slots {
			p := DefaultPrototype()
			p.Slot = slot
			results[j], err = p.Run(HEBD, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for j, slot := range slots {
		b.ReportMetric(results[j].EnergyEfficiency, "EE@"+slot.String())
	}
}

// BenchmarkAblationDeltaR compares PAT learning steps.
func BenchmarkAblationDeltaR(b *testing.B) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	deltas := []float64{0.005, 0.01, 0.05}
	results := make([]sim.Result, len(deltas))
	for i := 0; i < b.N; i++ {
		for j, dr := range deltas {
			p := DefaultPrototype()
			p.PATConfig.DeltaR = dr
			results[j], err = p.Run(HEBD, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for j, dr := range deltas {
		b.ReportMetric(results[j].EnergyEfficiency, "EE@dr="+formatPct(dr))
	}
}

// BenchmarkAblationTopology compares rack-level, cluster-level and
// centralized-UPS deployments (Section 4's architecture comparison).
func BenchmarkAblationTopology(b *testing.B) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	tops := []power.Topology{
		power.TopologyRackLevel, power.TopologyClusterLevel, power.TopologyCentralizedUPS,
	}
	results := make([]sim.Result, len(tops))
	for i := 0; i < b.N; i++ {
		for j, topo := range tops {
			p := DefaultPrototype()
			p.Topology = topo
			results[j], err = p.Run(HEBD, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for j, topo := range tops {
		b.ReportMetric(results[j].EnergyEfficiency, "EE@"+topo.String())
	}
}

// BenchmarkEngineStep measures raw simulator throughput: steps/second of
// one HEB-D run, the number that bounds every experiment above.
func BenchmarkEngineStep(b *testing.B) {
	p := DefaultPrototype()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := p.Run(HEBD, pr.WithDuration(time.Hour), RunOptions{Duration: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "simSteps/s")
}

// BenchmarkEngineReuse measures the pooled-reuse path: the same HEB-D
// hour as BenchmarkEngineStep, but every iteration checks the run state
// out of a warmed RunCache and resets it instead of rebuilding. This is
// the per-cell cost a sweep pays from its second cell on; the allocs/op
// column is the zero-alloc headline (target: under 100 allocations for
// the entire construct–step–finish cycle, vs ~6.5k for a fresh engine).
func BenchmarkEngineReuse(b *testing.B) { benchPooledHour(b, DefaultPrototype(), "PR") }

// BenchmarkEngineStepScale is the per-server hot loop at scale: the
// scale-out study's x16 HEB-D cell (96 servers) for one hour of DA, a
// mismatch-heavy workload, so relay selection, LRU shedding order and
// per-source metering run on most ticks. Its allocs/op must stay as flat
// as BenchmarkEngineReuse's, whatever the server count.
func BenchmarkEngineStepScale(b *testing.B) {
	benchPooledHour(b, DefaultPrototype().scaledBy(16), "DA")
}

// BenchmarkRunStateResetScale prices what a pooled x16 HEB-D cell pays
// before its first step: runState.reset, whose PAT restore copies the
// seeded image (4096 entries of an 11,300-cell grid) back over the table
// the previous run learned on. It must allocate nothing.
func BenchmarkRunStateResetScale(b *testing.B) {
	p := DefaultPrototype().scaledBy(16)
	w, err := WorkloadNamed("DA")
	if err != nil {
		b.Fatal(err)
	}
	cache := NewRunCache(1)
	if _, err := p.RunWith(cache, 0, HEBD, w.WithDuration(time.Hour), RunOptions{Duration: time.Hour}); err != nil {
		b.Fatal(err)
	}
	st := cache.lookup(0, p.poolKey(HEBD, p.Budget))
	if st == nil || st.table == nil {
		b.Fatal("the warm-up run cached no HEB-D table")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.reset(p)
	}
}

// benchPooledHour times one HEB-D hour of the named workload on p, every
// iteration checking the run state out of a RunCache warmed by one cold
// run, so allocs/op counts only what a reused run allocates.
func benchPooledHour(b *testing.B, p Prototype, workload string) {
	w, err := WorkloadNamed(workload)
	if err != nil {
		b.Fatal(err)
	}
	wl := w.WithDuration(time.Hour)
	if _, err := wl.Trace(p); err != nil {
		b.Fatal(err)
	}
	opts := RunOptions{Duration: time.Hour}
	cache := NewRunCache(1)
	if _, err := p.RunWith(cache, 0, HEBD, wl, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := p.RunWith(cache, 0, HEBD, wl, opts)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "simSteps/s")
}

// benchHooksOn times the HEB-D hour with one engine hook family switched
// on by arm, which configures a fresh prototype copy and run options per
// iteration. The hooks-off path is BenchmarkEngineStep itself: its exact
// allocs/op gate in BENCH_sweep.json is the proof that every nil-guarded
// hook costs nothing when off.
func benchHooksOn(b *testing.B, arm func(q *Prototype, opts *RunOptions)) {
	b.Helper()
	p := DefaultPrototype()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the trace cache so per-iteration cost is pure simulation.
	if _, err := pr.WithDuration(time.Hour).Trace(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		q := p
		opts := RunOptions{Duration: time.Hour}
		arm(&q, &opts)
		res, err := q.Run(HEBD, pr.WithDuration(time.Hour), opts)
		if err != nil {
			b.Fatal(err)
		}
		if q.Capture != nil {
			if m := q.Capture.BuildManifest(); len(m.Runs) != 1 {
				b.Fatalf("manifest holds %d runs", len(m.Runs))
			}
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "simSteps/s")
}

// BenchmarkEngineObsEnabled runs the hour with the event log and decision
// trace attached.
func BenchmarkEngineObsEnabled(b *testing.B) {
	benchHooksOn(b, func(_ *Prototype, opts *RunOptions) {
		opts.Events = obs.NewLog(0)
		opts.DecisionTrace = obs.NewDecisionLog().Append
	})
}

// BenchmarkEngineProbesEnabled runs the hour with the deep layer on:
// per-device probes, the energy auditor and span tracing.
func BenchmarkEngineProbesEnabled(b *testing.B) {
	benchHooksOn(b, func(q *Prototype, _ *RunOptions) {
		q.ProbeEvery = 60
		q.Audit = obs.AuditModeReport
		q.Audits = obs.NewAuditLog()
		q.Tracer = obs.NewTracer()
	})
}

// BenchmarkEngineCheckpointEnabled runs the hour snapshotting every slot
// into a discarding sink; its overhead target is measured against
// BenchmarkEngineStep.
func BenchmarkEngineCheckpointEnabled(b *testing.B) {
	benchHooksOn(b, func(q *Prototype, opts *RunOptions) {
		q.CheckpointEvery = 1
		opts.CheckpointSink = func(obs.CheckpointRecord) {}
	})
}

// BenchmarkEngineManifestEnabled runs the hour with a capture attached
// and builds the run's manifest row per iteration (no file IO).
func BenchmarkEngineManifestEnabled(b *testing.B) {
	benchHooksOn(b, func(q *Prototype, _ *RunOptions) { q.Capture = obs.NewCapture() })
}

// recordedCapture records one hooks-on 2 h HEB-D capture on PR (events,
// decisions, probes every 60 steps, a checkpoint every slot, audit and
// alerts): the capture a flight-recorder run writes.
func recordedCapture(b *testing.B) *obs.Capture {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	const d = 2 * time.Hour
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.ProbeEvery = 60
	p.CheckpointEvery = 1
	p.Audit = obs.AuditModeReport
	p.Alert = alerts.ModeReport
	if _, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{Duration: d}); err != nil {
		b.Fatal(err)
	}
	return p.Capture
}

// BenchmarkCaptureWriteFiles writes the recordedCapture into a temp
// directory per iteration: the file half of a flight-recorder run. The
// run itself is recorded once, untimed.
func BenchmarkCaptureWriteFiles(b *testing.B) {
	c := recordedCapture(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFiles(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureBuildManifest builds the recordedCapture's manifest per
// iteration: WriteFiles' snapshot, encode and manifest work into
// io.Discard, with no disk.
func BenchmarkCaptureBuildManifest(b *testing.B) {
	c := recordedCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := c.BuildManifest(); len(m.Runs) != 1 {
			b.Fatalf("manifest holds %d runs", len(m.Runs))
		}
	}
}

// BenchmarkReadCheckpoints reads the recordedCapture's checkpoint chain
// (twelve records of the 2 h HEB-D run, as WriteFiles writes them) per
// iteration: the read half of every resume, replay, check and bisect.
func BenchmarkReadCheckpoints(b *testing.B) {
	dir := b.TempDir()
	if err := recordedCapture(b).WriteFiles(dir); err != nil {
		b.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obs.ReadCheckpoints(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAlertsEnabled runs the hour with the SLO rule engine in
// report mode with the default rules.
func BenchmarkEngineAlertsEnabled(b *testing.B) {
	benchHooksOn(b, func(q *Prototype, _ *RunOptions) { q.Alert = alerts.ModeReport })
}

// BenchmarkEngineProfEnabled runs the hour with a heap collector armed,
// so every run executes under its pprof cell labels.
func BenchmarkEngineProfEnabled(b *testing.B) {
	// A heap-only collector opens the label window without the CPU
	// profiler's sampling overhead distorting ns/op.
	c := prof.NewCollector(b.TempDir(), []string{"heap"})
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := c.Stop(); err != nil {
			b.Fatal(err)
		}
	}()
	benchHooksOn(b, func(*Prototype, *RunOptions) {})
}

// benchMultiSeed measures the multi-seed sweep at a fixed worker count.
// The seed × scheme grid is the repo's heaviest embarrassingly-parallel
// sweep, so the Sequential/Parallel pair below is the headline
// wall-clock comparison for the shared runner; TestSweepDeterminism
// asserts both produce identical results.
func benchMultiSeed(b *testing.B, workers int) {
	b.Helper()
	p := DefaultPrototype()
	opts := MultiSeedOptions{
		Seeds:    4,
		Duration: time.Hour,
		Workload: "PR",
		Schemes:  []SchemeID{BaOnly, HEBD},
		Workers:  workers,
	}
	stepsPerCell := int(opts.Duration / p.Step)
	cells := opts.Seeds * len(opts.Schemes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultiSeedComparison(p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*cells*stepsPerCell)/b.Elapsed().Seconds(), "simSteps/s")
}

func BenchmarkMultiSeedSequential(b *testing.B) { benchMultiSeed(b, 1) }

func BenchmarkMultiSeedParallel(b *testing.B) { benchMultiSeed(b, 0) }

// BenchmarkPATLookup measures the allocation table's lookup path.
func BenchmarkPATLookup(b *testing.B) {
	table := pat.MustNew(pat.DefaultConfig())
	for sc := 0.05; sc < 1; sc += 0.1 {
		for ba := 0.05; ba < 1; ba += 0.1 {
			table.Add(sc, ba, 120, 0.5)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Lookup(0.55, 0.45, 120)
	}
}

func formatPct(v float64) string {
	switch v {
	case 0.005:
		return "0.5%"
	case 0.01:
		return "1%"
	case 0.05:
		return "5%"
	default:
		return "?"
	}
}

// BenchmarkAblationChemistry swaps the battery chemistry: how much of
// HEB's win stems from lead-acid's specific weaknesses? (Extension beyond
// the paper; see esd.LiIonBatteryConfig.)
func BenchmarkAblationChemistry(b *testing.B) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	var la, li sim.Result
	for i := 0; i < b.N; i++ {
		p := DefaultPrototype()
		la, err = p.Run(HEBD, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
		p = DefaultPrototype()
		p.Battery = esd.LiIonBatteryConfig()
		li, err = p.Run(HEBD, pr.WithDuration(benchDuration), RunOptions{Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(la.EnergyEfficiency, "EE/lead-acid")
	b.ReportMetric(li.EnergyEfficiency, "EE/li-ion")
	b.ReportMetric(la.BatteryLifetimeYears, "life/lead-acid")
	b.ReportMetric(li.BatteryLifetimeYears, "life/li-ion")
}

// BenchmarkAblationOraclePrediction reports the headroom above
// Holt-Winters that perfect prediction would buy.
func BenchmarkAblationOraclePrediction(b *testing.B) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	var rows []PredictionAblationRow
	for i := 0; i < b.N; i++ {
		rows, err = PredictionAblation(DefaultPrototype(), pr, benchDuration)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Predictor {
		case "holt-winters (HEB-D)":
			b.ReportMetric(r.PeakMAPE, "MAPE/hw")
		case "oracle":
			b.ReportMetric(r.PeakMAPE, "MAPE/oracle")
			b.ReportMetric(r.EnergyEfficiency, "EE/oracle")
		}
	}
}

// BenchmarkDeploymentComparison regenerates the Section 4.2 architecture
// trade-off (rack vs cluster vs centralized UPS).
func BenchmarkDeploymentComparison(b *testing.B) {
	spec, err := SpecNamed("PR")
	if err != nil {
		b.Fatal(err)
	}
	var results []DeploymentResult
	for i := 0; i < b.N; i++ {
		results, err = CompareDeployments(DefaultPrototype(), spec, 2, benchDuration)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.DowntimeServerSeconds, "downtime@"+r.Topology.String())
	}
}

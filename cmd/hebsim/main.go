// Command hebsim regenerates the paper's tables and figures from the HEB
// simulator. Each experiment prints a text table; see DESIGN.md for the
// experiment index.
//
// Usage:
//
//	hebsim -exp all
//	hebsim -exp fig12a -duration 6h
//	hebsim -exp fig6 -load 60
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
	"time"

	"heb"
	"heb/internal/ascii"
	"heb/internal/logging"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/pat"
	"heb/internal/runner"
	"heb/internal/sim"
	"heb/internal/solar"
	"heb/internal/trace"
	"heb/internal/units"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+experimentNames())
		duration = flag.Duration("duration", 6*time.Hour, "simulated time per run")
		seed     = flag.Int64("seed", 42, "workload generation seed")
		load     = flag.Float64("load", 60, "per-server watts for fig6")
		budget   = flag.Float64("budget", 0, "override utility budget in watts (0 = prototype default)")
		scheme   = flag.String("scheme", "HEB-D", "scheme for -exp run")
		wlName   = flag.String("workload", "PR", "Table 1 workload for -exp run")
		wlCSV    = flag.String("workload-csv", "", "utilization trace CSV (overrides -workload; see tracegen)")
		patIn    = flag.String("pat-in", "", "warm-start HEB-S/HEB-D from a saved PAT (JSON)")
		patOut   = flag.String("pat-out", "", "persist the learned PAT after -exp run (JSON)")
		workers  = flag.Int("workers", 0, "worker pool size for sweeps and -exp all (0 = GOMAXPROCS)")
		obsDir   = flag.String("obs", "", "write observability artifacts (events.jsonl, decisions.jsonl, metrics.prom, probes.jsonl, audits.jsonl) to this directory")
		probes   = flag.Int("probes", 0, "sample per-device probes every N engine steps (0 = off); samples land in the -obs capture")
		probeCap = flag.Int("probe-ring", 0, "retained probe samples per device (0 = obs package default)")
		audit    = flag.String("audit", "off", "invariant checker, energy-audit side: off, report, or strict (strict aborts a run at its first audit violation); reports land in the -obs capture's audits.jsonl")
		alertsF  = flag.String("alerts", "off", "invariant checker, SLO-rule side: off, report, or strict (strict aborts a run once a critical alert fires); fired alerts land in the -obs capture's alerts.jsonl and each run's manifest health verdict")
		alertFlr = flag.Float64("alert-soc-floor", 0, "override the soc_floor alert threshold (0 = rule default, negative disables); tightening it above a scheme's natural SoC swing fault-injects a critical breach")
		profileF = flag.String("profile", "", "capture pprof profiles into <obs>/profiles/ (comma list of cpu, heap, allocs, mutex, block, or all; requires -obs); profiles measure wall-clock behaviour and are excluded from byte-identity checks, like -trace")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file of wall-clock sweep-cell and run spans to this file (open in Perfetto; layer costs come from -profile and hebobs prof top -by phase)")
		ckptEvry = flag.Int("checkpoint-every", 0, "flight recorder: checkpoint the engine state every N control slots into <obs>/checkpoints.jsonl (-exp run; requires -obs)")
		resume   = flag.Bool("resume", false, "flight recorder: resume the interrupted -exp run recorded in <obs>/checkpoints.jsonl: re-run it from the seed, check it against the recorded chain, and append the records past its end")
		replay   = flag.String("replay", "", "flight recorder: re-run to the end of the slot window \"[run:]A-B\", checking the run against <obs>/checkpoints.jsonl on the way, and print the window's events and decisions (-exp run)")
		logMode  = flag.String("log", logging.ModeText, "structured log format on stderr: text (deterministic) or json")
	)
	flag.Parse()
	if err := logging.Setup(os.Stderr, *logMode, logging.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "hebsim:", err)
		os.Exit(2)
	}
	if *duration <= 0 {
		slog.Error("-duration must be positive", "duration", *duration)
		os.Exit(2)
	}
	all := experiments()
	selected := slices.IndexFunc(all, func(x experiment) bool { return x.name == *exp })
	if selected < 0 {
		slog.Error("unknown -exp", "exp", *exp, "valid", experimentNames())
		os.Exit(2)
	}
	if *workers < 0 {
		slog.Error("-workers must not be negative (0 = GOMAXPROCS)", "workers", *workers)
		os.Exit(2)
	}
	if *exp != "run" {
		var runOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scheme", "workload", "workload-csv", "pat-in", "pat-out":
				runOnly = append(runOnly, "-"+f.Name)
			}
		})
		if len(runOnly) > 0 {
			slog.Error("flags apply only to -exp run", "flags", strings.Join(runOnly, " "), "exp", *exp)
			os.Exit(2)
		}
	}

	p := heb.DefaultPrototype()
	p.Seed = *seed
	if *budget > 0 {
		p.Budget = units.Power(*budget)
	}
	var capture *obs.Capture
	if *obsDir != "" {
		capture = obs.NewCapture()
		p.Capture = capture
	}
	p.ProbeEvery = *probes
	p.ProbeRing = *probeCap
	p.Audit = parseMode("-audit", *audit)
	p.Alert = parseMode("-alerts", *alertsF)
	p.AlertRules.SoCFloor = *alertFlr
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		p.Tracer = tracer
		p.TraceCell = *exp
	}

	var collector *prof.Collector
	if *profileF != "" {
		if *obsDir == "" {
			slog.Error("-profile requires -obs (the capture directory that receives profiles/)")
			os.Exit(2)
		}
		if *replay != "" {
			slog.Error("-profile and -replay are mutually exclusive (replay inspects an existing capture)")
			os.Exit(2)
		}
		kinds, perr := prof.ParseKinds(*profileF)
		if perr != nil {
			slog.Error("bad -profile flag", "err", perr)
			os.Exit(2)
		}
		collector = prof.NewCollector(*obsDir, kinds)
	}

	fl := flight{dir: *obsDir, every: *ckptEvry, resume: *resume, replay: *replay}
	if fl.enabled() {
		switch {
		case *exp != "run":
			slog.Error("-checkpoint-every, -resume and -replay require -exp run")
			os.Exit(2)
		case *obsDir == "":
			slog.Error("-checkpoint-every, -resume and -replay require -obs (the directory holding checkpoints.jsonl)")
			os.Exit(2)
		case *resume && *replay != "":
			slog.Error("-resume and -replay are mutually exclusive")
			os.Exit(2)
		}
		if *replay != "" {
			if _, _, _, err := parseReplayWindow(*replay); err != nil {
				slog.Error("bad -replay flag", "err", err)
				os.Exit(2)
			}
		}
		p.CheckpointEvery = *ckptEvry
	}
	if *replay != "" {
		// A replay re-executes a window of an already-recorded run; it must
		// inspect, not overwrite, that run's artifacts.
		capture = nil
		p.Capture = nil
	}
	if p.Audit != alerts.ModeOff {
		p.Audits = obs.NewAuditLog()
	}
	if p.Alert != alerts.ModeOff {
		p.Alerts = alerts.NewLog()
	}
	if capture != nil {
		// Manifest lifecycle: mark the capture directory as running before
		// any simulation starts. A process that dies here leaves a
		// detectable "running" manifest; the resume path below turns that
		// into "killed" before taking over, and WriteFiles lands "complete".
		capture.SetLabel(*exp)
		if *resume {
			if m, merr := obs.ReadManifest(*obsDir); merr == nil && m.Status == obs.StatusRunning {
				if serr := obs.SetManifestStatus(*obsDir, obs.StatusKilled); serr != nil {
					slog.Error("marking stale capture killed", "dir", *obsDir, "err", serr)
					os.Exit(1)
				}
				slog.Warn("previous capture writer died mid-run; marked killed", "dir", *obsDir)
			}
		}
		if serr := obs.StartManifest(*obsDir, *exp); serr != nil {
			slog.Error("starting capture manifest", "dir", *obsDir, "err", serr)
			os.Exit(1)
		}
	}
	if collector != nil {
		// The collector window opens just before the experiments and
		// closes right after them, so artifact serialization below never
		// pollutes the profiles. Starting flips prof.Active(): every
		// Prototype.Run now executes under its cell labels.
		if perr := collector.Start(); perr != nil {
			slog.Error("starting profile capture", "err", perr)
			os.Exit(1)
		}
	}
	err := all[selected].run(os.Stdout, env{
		p: p, duration: *duration, load: units.Power(*load), workers: *workers,
		scheme: *scheme, workload: *wlName, workloadCSV: *wlCSV, patIn: *patIn, patOut: *patOut,
		flight: fl,
	})
	if collector != nil {
		if perr := collector.Stop(); perr != nil && err == nil {
			err = fmt.Errorf("profile capture: %w", perr)
		}
	}
	if p.Audits != nil {
		failed := p.Audits.Unhealthy()
		slog.Info("audits done", "runs", len(p.Audits.Reports()), "failed", len(failed))
		for _, r := range failed {
			slog.Warn("audit failed", "run", r.Run, "summary", r.Summary())
		}
	}
	if p.Alerts != nil {
		reports := p.Alerts.Reports()
		unhealthy := p.Alerts.Unhealthy()
		criticals := 0
		for _, r := range reports {
			criticals += r.Criticals
		}
		slog.Info("alerts done", "runs", len(reports), "unhealthy", len(unhealthy), "criticals", criticals)
		for _, r := range unhealthy {
			slog.Warn("alerts unhealthy", "run", r.Run, "summary", r.Summary())
		}
	}
	if err == nil && capture != nil {
		if err = capture.WriteFiles(*obsDir); err == nil {
			slog.Info("wrote observability artifacts", "runs", capture.Len(), "dir", *obsDir)
		}
		if err == nil && collector != nil {
			// Profiles join the manifest in their own wall-clock inventory
			// section, leaving the deterministic sections byte-identical.
			if err = obs.AttachProfiles(*obsDir); err == nil {
				slog.Info("attached profiles to manifest", "kinds", *profileF)
			}
		}
	}
	if err == nil && tracer != nil {
		if err = writeTrace(*traceOut, tracer); err == nil {
			slog.Info("wrote trace", "file", *traceOut)
		}
	}
	if err != nil {
		if capture != nil {
			// Leave a "failed" manifest behind so the registry shows what
			// happened; best effort — the run error stays primary.
			if serr := obs.SetManifestStatus(*obsDir, obs.StatusFailed); serr != nil {
				slog.Warn("marking capture failed", "dir", *obsDir, "err", serr)
			}
		}
		slog.Error("run failed", "err", err)
		os.Exit(1)
	}
}

// parseMode reads an -audit or -alerts value, exiting 2 on a bad one.
func parseMode(name, value string) alerts.Mode {
	m, err := alerts.ParseMode(value)
	if err != nil {
		slog.Error("bad "+name+" flag", "err", err)
		os.Exit(2)
	}
	return m
}

// writeTrace exports the tracer as a Chrome trace-event JSON file.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env is the command line as an experiment sees it.
type env struct {
	p        heb.Prototype
	duration time.Duration
	load     units.Power // per-server watts for fig6
	// workers bounds the worker pool of the experiments that take a
	// worker count (<= 0 means GOMAXPROCS).
	workers int
	// The -exp run settings.
	scheme, workload, workloadCSV, patIn, patOut string
	flight                                       flight
}

// experiment is one -exp value: its name, whether -exp all runs it, and
// the function that renders its table.
type experiment struct {
	name  string
	inAll bool
	run   func(w io.Writer, e env) error
}

// experiments lists every -exp value in help order; -exp all runs the
// inAll ones in this order. It is a function rather than a variable
// because runAll, one of its entries, reads it.
func experiments() []experiment {
	return []experiment{
		{"table1", true, func(w io.Writer, _ env) error { return heb.WriteTable1(w) }},
		{"fig1", true, func(w io.Writer, e env) error { return emit(w, heb.WriteFigure1)(heb.Figure1(e.p.Seed)) }},
		{"fig1b", true, fig1b},
		{"fig3", true, func(w io.Writer, e env) error { return emit(w, heb.WriteFigure3)(heb.Figure3(e.p)) }},
		{"fig4", true, func(w io.Writer, _ env) error { return heb.WriteFigure4(w, heb.Figure4()) }},
		{"fig5", true, func(w io.Writer, e env) error { return emit(w, heb.WriteFigure5)(heb.Figure5(e.p)) }},
		{"fig6", true, func(w io.Writer, e env) error { return emit(w, heb.WriteFigure6)(heb.Figure6(e.p, e.load)) }},
		{"fig12a", true, func(w io.Writer, e env) error {
			return fig12(w, e, e.p.Budget, "EE", func(r sim.Result) float64 { return r.EnergyEfficiency })
		}},
		{"fig12b", true, func(w io.Writer, e env) error {
			return fig12(w, e, lowBudget(e.p), "downtime(s)", func(r sim.Result) float64 { return r.DowntimeServerSeconds })
		}},
		{"fig12c", true, func(w io.Writer, e env) error {
			return fig12(w, e, e.p.Budget, "battLife(y)", func(r sim.Result) float64 { return r.BatteryLifetimeYears })
		}},
		{"fig12d", true, fig12d},
		{"fig13", true, func(w io.Writer, e env) error { return emit(w, heb.WriteFigure13)(heb.Figure13(e.p, nil, e.duration)) }},
		{"fig14", true, func(w io.Writer, e env) error { return emit(w, heb.WriteFigure14)(heb.Figure14(e.p, nil, e.duration)) }},
		{"fig15a", true, fig15a},
		{"fig15b", true, fig15b},
		{"fig15c", true, fig15c},
		{"deploy", true, deploy},
		{"ablation", true, ablation},
		{"multiseed", true, func(w io.Writer, e env) error {
			return emit(w, heb.WriteMultiSeed)(heb.MultiSeedComparison(e.p, heb.MultiSeedOptions{
				Seeds: 5, Duration: e.duration, Workload: "PR", Workers: e.workers,
			}))
		}},
		{"capping", true, capping},
		{"scale", true, func(w io.Writer, e env) error {
			return emit(w, heb.WriteScaleOut)(heb.ScaleOutStudy(e.p, nil, e.duration))
		}},
		{"curves", false, curves},
		{"run", false, runOnce},
		{"summary", true, summary},
		{"all", false, runAll},
	}
}

// emit renders a computed table with write, or returns the error that
// computing it gave: emit(w, heb.WriteFigure3)(heb.Figure3(p)).
func emit[T any](w io.Writer, write func(io.Writer, T) error) func(T, error) error {
	return func(v T, err error) error {
		if err != nil {
			return err
		}
		return write(w, v)
	}
}

// experimentNames lists the -exp values for the flag's help text.
func experimentNames() string {
	var names []string
	for _, e := range experiments() {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

// runAll fans the full experiment suite out on the shared worker pool.
// Each experiment renders into its own buffer; buffers are printed in
// suite order once all experiments finish, so the output is byte-for-byte
// identical for any worker count, and a failure reports the lowest-index
// failing experiment. The experiments that take a worker count (fig12a-c,
// fig15c, multiseed, summary) run their inner sweeps on one worker, since
// the suite already saturates the pool; fig12d, fig13, fig14, deploy,
// ablation and capping take none and size their sweeps to GOMAXPROCS, and
// scale always runs on one worker.
// Note the scale experiment's steps/s numbers are co-scheduled with the
// other experiments here; run -exp scale alone for clean throughput.
func runAll(w io.Writer, e env) error {
	var suite []experiment
	var names []string
	for _, x := range experiments() {
		if x.inAll {
			suite = append(suite, x)
			names = append(names, x.name)
		}
	}
	// Live progress on stderr: the Progress observes the pool and each
	// simulation run feeds its step count through Prototype.Progress, so
	// the report shows queue depth, utilization and aggregate steps/s
	// without perturbing the (deterministic) experiment output on stdout.
	prog := &runner.Progress{}
	e.p.Progress = prog
	nworkers := runner.Workers(e.workers, len(suite))
	stop := make(chan struct{})
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "hebsim: %s\n", progressLine(prog.Snapshot(), nworkers))
			}
		}
	}()
	// Each cell gets its own tracer track (cell span) and files its runs'
	// tracks under its experiment name.
	bufs, err := runner.MapTraced(context.Background(), len(suite), e.workers, prog, e.p.Tracer, "suite", names,
		func(_ context.Context, i int) (*bytes.Buffer, error) {
			var buf bytes.Buffer
			q := e
			q.p.TraceCell = names[i]
			q.workers = 1
			if err := suite[i].run(&buf, q); err != nil {
				return &buf, fmt.Errorf("%s: %w", names[i], err)
			}
			return &buf, nil
		})
	close(stop)
	<-reporterDone
	fmt.Fprintf(os.Stderr, "hebsim: %s\n", progressLine(prog.Snapshot(), nworkers))
	// Print whatever completed, in suite order, before reporting the
	// (lowest-index) error: partial output still helps diagnosis.
	for i, buf := range bufs {
		if buf == nil || (err != nil && buf.Len() == 0) {
			continue
		}
		if _, werr := fmt.Fprintf(w, "\n===== %s =====\n", names[i]); werr != nil {
			return werr
		}
		if _, werr := w.Write(buf.Bytes()); werr != nil {
			return werr
		}
	}
	return err
}

// progressLine renders one human-readable sweep status line:
// done/total cells, failures, queue depth, mean busy-worker fraction,
// aggregate simulation steps/s and mean per-cell wall time.
func progressLine(s runner.ProgressSnapshot, workers int) string {
	line := fmt.Sprintf("%d/%d cells done", s.Done, s.Total)
	if s.Failed > 0 {
		line += fmt.Sprintf(" (%d failed)", s.Failed)
	}
	line += fmt.Sprintf(", %d active, %d queued, util %.0f%%",
		s.Active, s.Queued, s.Utilization(workers)*100)
	if s.Units > 0 {
		line += fmt.Sprintf(", %.2fM steps/s", s.UnitsPerSecond()/1e6)
	}
	if s.Checkpoints > 0 {
		line += fmt.Sprintf(", %d checkpoints", s.Checkpoints)
	}
	if s.Done > 0 {
		line += fmt.Sprintf(", mean cell %.1fs", s.CellSeconds/float64(s.Done))
	}
	return line
}

// lowBudget is the deliberately lowered budget the paper uses to trigger
// downtime in the Figure 12(b) comparison.
func lowBudget(p heb.Prototype) units.Power {
	return p.Budget * 85 / 100
}

// fig1b illustrates the renewable mismatch of Figure 1(b): a stable load
// against one simulated solar day, showing peak (deficit) and valley
// (surplus) energy that the buffers must bridge and absorb.
func fig1b(w io.Writer, e env) error {
	cfg := solarDefault(e.p)
	series, err := cfg.Generate(24*time.Hour, time.Minute)
	if err != nil {
		return err
	}
	demand := 6.0 * 42 // stable load: six servers at ~30% utilization
	var surplusWh, deficitWh float64
	surplusMin, deficitMin := 0, 0
	for _, v := range series.Values {
		if v >= demand {
			surplusWh += (v - demand) / 60
			surplusMin++
		} else {
			deficitWh += (demand - v) / 60
			deficitMin++
		}
	}
	fmt.Fprintln(w, ascii.Chart("solar W", series.Values, 100))
	fmt.Fprintf(w, "stable demand %.0f W over 24h\n", demand)
	fmt.Fprintf(w, "valley power (supply > demand): %5.1f Wh over %4.1f h -> charge buffers\n",
		surplusWh, float64(surplusMin)/60)
	fmt.Fprintf(w, "peak power   (demand > supply): %5.1f Wh over %4.1f h -> discharge buffers\n",
		deficitWh, float64(deficitMin)/60)
	return nil
}

func fig12(w io.Writer, e env, budget units.Power, metric string, f func(sim.Result) float64) error {
	results, err := heb.Figure12(e.p, heb.Figure12Options{Duration: e.duration, Budget: budget, Workers: e.workers})
	if err != nil {
		return err
	}
	return heb.WriteSchemeComparison(w, results, metric, f)
}

func fig12d(w io.Writer, e env) error {
	results, err := heb.Figure12d(e.p, solarDefault(e.p), e.duration, nil)
	if err != nil {
		return err
	}
	return heb.WriteSchemeComparison(w, results, "REU",
		func(r sim.Result) float64 { return r.REU })
}

func solarDefault(p heb.Prototype) solar.Config {
	cfg := solar.DefaultConfig()
	cfg.Seed = p.Seed
	return cfg
}

func fig15a(w io.Writer, _ env) error {
	items, total := heb.Figure15a()
	for _, it := range items {
		fmt.Fprintf(w, "%-45s $%.0f (%.0f%%)\n", it.Name, it.CostUSD, it.CostUSD/total*100)
	}
	fmt.Fprintf(w, "%-45s $%.0f\n", "TOTAL (per HEB node, powers 6 servers)", total)
	return nil
}

func fig15b(w io.Writer, _ env) error {
	pts := heb.Figure15b()
	fmt.Fprintln(w, "C_cap($/W)  peak(h)  ROI")
	for _, pt := range pts {
		fmt.Fprintf(w, "%8.0f  %7.2f  %+.2f\n", pt.CapPerWatt, pt.PeakHours, pt.ROI)
	}
	return nil
}

func fig15c(w io.Writer, e env) error {
	results, err := heb.Figure12(e.p, heb.Figure12Options{
		Duration: e.duration,
		Schemes:  []heb.SchemeID{heb.BaOnly, heb.BaFirst, heb.SCFirst, heb.HEBD},
		Workers:  e.workers,
	})
	if err != nil {
		return err
	}
	rows, err := heb.Figure15c(results, 8)
	if err != nil {
		return err
	}
	return heb.WriteFigure15c(w, rows)
}

func deploy(w io.Writer, e env) error {
	spec, err := heb.SpecNamed("PR")
	if err != nil {
		return err
	}
	results, err := heb.CompareDeployments(e.p, spec, 2, e.duration)
	if err != nil {
		return err
	}
	return heb.WriteDeployments(w, results)
}

func ablation(w io.Writer, e env) error {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return err
	}
	rows, err := heb.PredictionAblation(e.p, wl, e.duration)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "prediction ablation (HEB-D on PR):")
	fmt.Fprintf(w, "%-28s %10s %8s %13s\n", "predictor", "peak MAPE", "EE", "downtime(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10.3f %8.3f %13.0f\n",
			r.Predictor, r.PeakMAPE, r.EnergyEfficiency, r.DowntimeServerSeconds)
	}
	return nil
}

// curveRecorder collects the demand and SoC series a run's Observer sees
// and charts them.
type curveRecorder struct{ demand, baSoC, scSoC []float64 }

func (c *curveRecorder) observe(s sim.StepInfo) {
	c.demand = append(c.demand, float64(s.Demand))
	c.baSoC = append(c.baSoC, s.BatterySoC)
	c.scSoC = append(c.scSoC, s.SupercapSoC)
}

func (c *curveRecorder) chart(w io.Writer) {
	fmt.Fprintln(w, ascii.Chart("demand W", c.demand, 100))
	fmt.Fprintln(w, ascii.Chart("batt SoC", c.baSoC, 100))
	fmt.Fprintln(w, ascii.Chart("SC SoC", c.scSoC, 100))
}

// runOnce executes a single scheme on a single workload — optionally a
// recorded CSV trace — and prints the result with demand/SoC curves. The
// flight settings arm the flight recorder (checkpointing, resume,
// windowed replay).
func runOnce(w io.Writer, e env) error {
	id, err := heb.SchemeNamed(e.scheme)
	if err != nil {
		return err
	}
	var wl heb.Workload
	if e.workloadCSV != "" {
		f, err := os.Open(e.workloadCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.ReadCSV(f, e.workloadCSV, 10*time.Second)
		if err != nil {
			return err
		}
		if err := tr.Validate(); err != nil {
			return err
		}
		wl = heb.WorkloadFromTrace(tr)
	} else {
		wl, err = heb.WorkloadNamed(e.workload)
		if err != nil {
			return err
		}
		wl = wl.WithDuration(e.duration)
	}
	var rec curveRecorder
	opts := heb.RunOptions{Duration: e.duration, Observer: rec.observe}
	if e.patIn != "" {
		f, err := os.Open(e.patIn)
		if err != nil {
			return err
		}
		table, err := pat.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.Table = table
		fmt.Fprintf(w, "warm-started PAT from %s (%d entries)\n", e.patIn, table.Len())
	}
	var learned *pat.Table
	if e.patOut != "" {
		opts.TableSink = func(t *pat.Table) { learned = t }
	}
	p := e.p
	var win *replayWindow
	if e.flight.enabled() {
		var werr error
		win, werr = wireFlight(w, &p, &opts, e.flight)
		if werr != nil {
			return werr
		}
	}
	res, err := p.Run(id, wl, opts)
	if err != nil {
		return err
	}
	if e.patOut != "" {
		if learned == nil {
			return fmt.Errorf("scheme %s has no PAT to persist", e.scheme)
		}
		f, err := os.Create(e.patOut)
		if err != nil {
			return err
		}
		if err := learned.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved learned PAT to %s (%d entries)\n", e.patOut, learned.Len())
	}
	rec.chart(w)
	fmt.Fprintln(w, res)
	wear := res.BatteryWear
	fmt.Fprintf(w, "battery wear: %.2f Ah throughput (%.2f equivalent full cycles), %.3g weighted Ah of %.0f rated, life used %.3g%%, est lifetime %.1f y\n",
		wear.ThroughputAh, wear.EquivalentFullCycles, wear.WeightedAh, wear.RatedAh,
		wear.LifeFractionUsed*100, res.BatteryLifetimeYears)
	if win != nil {
		win.report(w)
	}
	return nil
}

func capping(w io.Writer, e env) error {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return err
	}
	rows, err := heb.CompareWithDVFSCapping(e.p, wl, e.duration)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %8s %13s %13s %12s\n",
		"approach", "EE", "downtime(s)", "degraded(s)", "utilPeak(W)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8.3f %13.0f %13.0f %12.0f\n",
			r.Approach, r.EnergyEfficiency, r.DowntimeServerSeconds,
			r.DegradedServerSeconds, r.UtilityPeakW)
	}
	return nil
}

func curves(w io.Writer, e env) error {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return err
	}
	var rec curveRecorder
	res, err := e.p.Run(heb.HEBD, wl.WithDuration(e.duration), heb.RunOptions{
		Duration: e.duration,
		Observer: rec.observe,
	})
	if err != nil {
		return err
	}
	rec.chart(w)
	fmt.Fprintf(w, "run: %s\n", res)
	return nil
}

func summary(w io.Writer, e env) error {
	results, err := heb.Figure12(e.p, heb.Figure12Options{Duration: e.duration, Budget: lowBudget(e.p), Workers: e.workers})
	if err != nil {
		return err
	}
	// Fold REU from the solar runs into the same result set; both grids
	// list every scheme in AllSchemes order.
	reu, err := heb.Figure12d(e.p, solarDefault(e.p), e.duration, nil)
	if err != nil {
		return err
	}
	for i, sr := range results {
		meanREU := reu[i].Mean(func(r sim.Result) float64 { return r.REU })
		for k, v := range sr.Results {
			v.REU = meanREU
			sr.Results[k] = v
		}
	}
	return heb.WriteImprovementSummary(w, results)
}

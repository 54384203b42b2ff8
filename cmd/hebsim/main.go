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
	"net/http"
	"os"
	"runtime"
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
	"heb/internal/telemetry"
	"heb/internal/trace"
	"heb/internal/units"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, fig1, fig1b, fig3, fig4, fig5, fig6, fig12a, fig12b, fig12c, fig12d, fig13, fig14, fig15a, fig15b, fig15c, deploy, ablation, multiseed, capping, scale, curves, run, summary, all")
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
		profileF = flag.String("profile", "", "capture pprof profiles into <obs>/profiles/ (comma list of cpu, heap, allocs, mutex, block, or all; requires -obs); profiles measure wall-clock behaviour and are excluded from byte-identity checks, like -trace-clock wall")
		traceOut = flag.String("trace", "", "write a Chrome trace-event span profile to this file (open in Perfetto; summarize with hebobs trace)")
		traceClk = flag.String("trace-clock", "virtual", "trace timestamps: virtual (deterministic) or wall (real elapsed time)")
		ckptEvry = flag.Int("checkpoint-every", 0, "flight recorder: checkpoint the engine state every N control slots into <obs>/checkpoints.jsonl (-exp run; requires -obs)")
		resume   = flag.Bool("resume", false, "flight recorder: resume the interrupted -exp run recorded in <obs>/checkpoints.jsonl: re-run it from the seed, check it against the recorded chain, and append the records past its end")
		replay   = flag.String("replay", "", "flight recorder: re-run to the end of the slot window \"[run:]A-B\", checking the run against <obs>/checkpoints.jsonl on the way, and print the window's events and decisions (-exp run)")
		logMode  = flag.String("log", logging.ModeText, "structured log format on stderr: text (deterministic) or json")
		telAddr  = flag.String("telemetry", "", "serve live heb_runner_*/heb_proc_* self-telemetry at this address while the sweep runs (e.g. :9100)")
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
		switch *traceClk {
		case "virtual":
			tracer = obs.NewTracer()
		case "wall":
			tracer = obs.NewWallTracer()
		default:
			slog.Error("unknown trace clock (want virtual or wall)", "clock", *traceClk)
			os.Exit(2)
		}
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
	if *telAddr != "" {
		nw := *workers
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		prog := &runner.Progress{}
		p.Progress = prog
		go serveTelemetry(*telAddr, prog, nw)
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
	var err error
	if *exp == "run" {
		err = runOnce(os.Stdout, p, *duration, *scheme, *wlName, *wlCSV, *patIn, *patOut, fl)
	} else {
		err = run(os.Stdout, *exp, p, *duration, units.Power(*load), *workers)
	}
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
			slog.Info("wrote observability artifacts", "runs", len(capture.Runs()), "dir", *obsDir)
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
			slog.Info("wrote span profile", "file", *traceOut)
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

// serveTelemetry exposes the process's live self-telemetry — the
// heb_runner_* pool family fed by prog plus the heb_proc_* and
// heb_runtime_* runtime families — at addr/metrics for the duration of
// the sweep. Serving is strictly
// observational: scrapes never touch simulation state, so experiment
// output is unchanged.
func serveTelemetry(addr string, prog *runner.Progress, workers int) {
	reg := obs.NewRegistry()
	rm := telemetry.NewRunnerMetrics(reg, prog, workers)
	pm := telemetry.NewProcMetrics(reg)
	rt := telemetry.NewRuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", pm.Handler(rt.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rm.Sample()
		reg.Handler().ServeHTTP(w, r)
	}))))
	slog.Info("telemetry listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		slog.Warn("telemetry server stopped", "err", err)
	}
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

// run dispatches one experiment, writing its table to w. workers bounds
// the worker pool of sweep experiments (<= 0 means GOMAXPROCS).
func run(w io.Writer, exp string, p heb.Prototype, duration time.Duration, load units.Power, workers int) error {
	switch exp {
	case "table1":
		return table1(w)
	case "fig1":
		return fig1(w, p)
	case "fig1b":
		return fig1b(w, p)
	case "fig3":
		return fig3(w, p)
	case "fig4":
		return fig4(w)
	case "fig5":
		return fig5(w, p)
	case "fig6":
		return fig6(w, p, load)
	case "fig12a":
		return fig12(w, p, duration, p.Budget, workers, "EE", func(r sim.Result) float64 { return r.EnergyEfficiency })
	case "fig12b":
		return fig12(w, p, duration, lowBudget(p), workers, "downtime(s)", func(r sim.Result) float64 { return r.DowntimeServerSeconds })
	case "fig12c":
		return fig12(w, p, duration, p.Budget, workers, "battLife(y)", func(r sim.Result) float64 { return r.BatteryLifetimeYears })
	case "fig12d":
		return fig12d(w, p, duration)
	case "fig13":
		return fig13(w, p, duration)
	case "fig14":
		return fig14(w, p, duration)
	case "fig15a":
		return fig15a(w)
	case "fig15b":
		return fig15b(w)
	case "fig15c":
		return fig15c(w, p, duration, workers)
	case "deploy":
		return deploy(w, p, duration)
	case "ablation":
		return ablation(w, p, duration)
	case "multiseed":
		return multiseed(w, p, duration, workers)
	case "capping":
		return capping(w, p, duration)
	case "scale":
		return scale(w, p, duration)
	case "curves":
		return curves(w, p, duration)
	case "summary":
		return summary(w, p, duration, workers)
	case "all":
		return runAll(w, p, duration, load, workers)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// runAll fans the full experiment suite out on the shared worker pool.
// Each experiment renders into its own buffer; buffers are printed in
// suite order once all experiments finish, so the output is byte-for-byte
// identical for any worker count, and a failure reports the lowest-index
// failing experiment. Inner sweeps run with a single worker — the suite
// is already saturating the pool, and nesting would oversubscribe it.
// Note the scale experiment's steps/s numbers are co-scheduled with the
// other experiments here; run -exp scale alone for clean throughput.
func runAll(w io.Writer, p heb.Prototype, duration time.Duration, load units.Power, workers int) error {
	suite := []string{
		"table1", "fig1", "fig1b", "fig3", "fig4", "fig5", "fig6",
		"fig12a", "fig12b", "fig12c", "fig12d",
		"fig13", "fig14", "fig15a", "fig15b", "fig15c",
		"deploy", "ablation", "multiseed", "capping", "scale", "summary",
	}
	// Live progress on stderr: the Progress observes the pool and each
	// simulation run feeds its step count through Prototype.Progress, so
	// the report shows queue depth, utilization and aggregate steps/s
	// without perturbing the (deterministic) experiment output on stdout.
	prog := p.Progress
	if prog == nil {
		prog = &runner.Progress{}
		p.Progress = prog
	}
	nworkers := runner.Workers(workers, len(suite))
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
	// span tracks under its experiment name; with the default virtual
	// clock the exported trace stays byte-identical for any worker count.
	bufs, err := runner.MapTraced(context.Background(), len(suite), workers, prog, p.Tracer, "suite", suite,
		func(_ context.Context, i int, _ *obs.Track) (*bytes.Buffer, error) {
			var buf bytes.Buffer
			q := p
			q.TraceCell = suite[i]
			if err := run(&buf, suite[i], q, duration, load, 1); err != nil {
				return &buf, fmt.Errorf("%s: %w", suite[i], err)
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
		if _, werr := fmt.Fprintf(w, "\n===== %s =====\n", suite[i]); werr != nil {
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

func table1(w io.Writer) error {
	return heb.WriteTable1(w)
}

func fig1(w io.Writer, p heb.Prototype) error {
	r, err := heb.Figure1(p.Seed)
	if err != nil {
		return err
	}
	return heb.WriteFigure1(w, r)
}

// fig1b illustrates the renewable mismatch of Figure 1(b): a stable load
// against one simulated solar day, showing peak (deficit) and valley
// (surplus) energy that the buffers must bridge and absorb.
func fig1b(w io.Writer, p heb.Prototype) error {
	cfg := solarDefault(p)
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

func fig3(w io.Writer, p heb.Prototype) error {
	rows, err := heb.Figure3(p)
	if err != nil {
		return err
	}
	return heb.WriteFigure3(w, rows)
}

func fig4(w io.Writer) error {
	return heb.WriteFigure4(w, heb.Figure4())
}

func fig5(w io.Writer, p heb.Prototype) error {
	rows, err := heb.Figure5(p)
	if err != nil {
		return err
	}
	return heb.WriteFigure5(w, rows)
}

func fig6(w io.Writer, p heb.Prototype, load units.Power) error {
	r, err := heb.Figure6(p, load)
	if err != nil {
		return err
	}
	return heb.WriteFigure6(w, r)
}

func fig12(w io.Writer, p heb.Prototype, duration time.Duration, budget units.Power, workers int, metric string, f func(sim.Result) float64) error {
	results, err := heb.Figure12(p, heb.Figure12Options{Duration: duration, Budget: budget, Workers: workers})
	if err != nil {
		return err
	}
	return heb.WriteSchemeComparison(w, results, metric, f)
}

func fig12d(w io.Writer, p heb.Prototype, duration time.Duration) error {
	results, err := heb.Figure12d(p, solarDefault(p), duration, nil)
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

func fig13(w io.Writer, p heb.Prototype, duration time.Duration) error {
	pts, err := heb.Figure13(p, nil, duration)
	if err != nil {
		return err
	}
	return heb.WriteFigure13(w, pts)
}

func fig14(w io.Writer, p heb.Prototype, duration time.Duration) error {
	pts, err := heb.Figure14(p, nil, duration)
	if err != nil {
		return err
	}
	return heb.WriteFigure14(w, pts)
}

func fig15a(w io.Writer) error {
	items, total := heb.Figure15a()
	for _, it := range items {
		fmt.Fprintf(w, "%-45s $%.0f (%.0f%%)\n", it.Name, it.CostUSD, it.CostUSD/total*100)
	}
	fmt.Fprintf(w, "%-45s $%.0f\n", "TOTAL (per HEB node, powers 6 servers)", total)
	return nil
}

func fig15b(w io.Writer) error {
	pts := heb.Figure15b()
	fmt.Fprintln(w, "C_cap($/W)  peak(h)  ROI")
	for _, pt := range pts {
		fmt.Fprintf(w, "%8.0f  %7.2f  %+.2f\n", pt.CapPerWatt, pt.PeakHours, pt.ROI)
	}
	return nil
}

func fig15c(w io.Writer, p heb.Prototype, duration time.Duration, workers int) error {
	results, err := heb.Figure12(p, heb.Figure12Options{
		Duration: duration,
		Schemes:  []heb.SchemeID{heb.BaOnly, heb.BaFirst, heb.SCFirst, heb.HEBD},
		Workers:  workers,
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

func deploy(w io.Writer, p heb.Prototype, duration time.Duration) error {
	spec, err := heb.SpecNamed("PR")
	if err != nil {
		return err
	}
	results, err := heb.CompareDeployments(p, spec, 2, duration)
	if err != nil {
		return err
	}
	return heb.WriteDeployments(w, results)
}

func ablation(w io.Writer, p heb.Prototype, duration time.Duration) error {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return err
	}
	rows, err := heb.PredictionAblation(p, wl, duration)
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

func multiseed(w io.Writer, p heb.Prototype, duration time.Duration, workers int) error {
	results, err := heb.MultiSeedComparison(p, heb.MultiSeedOptions{
		Seeds:    5,
		Duration: duration,
		Workload: "PR",
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	return heb.WriteMultiSeed(w, results)
}

// runOnce executes a single scheme on a single workload — optionally a
// recorded CSV trace — and prints the result with demand/SoC curves. fl
// arms the flight recorder (checkpointing, resume, windowed replay).
func runOnce(w io.Writer, p heb.Prototype, duration time.Duration, scheme, wlName, wlCSV, patIn, patOut string, fl flight) error {
	var id heb.SchemeID
	found := false
	for _, s := range heb.AllSchemes() {
		if s.String() == scheme {
			id, found = s, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown scheme %q", scheme)
	}
	var wl heb.Workload
	if wlCSV != "" {
		f, err := os.Open(wlCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.ReadCSV(f, wlCSV, 10*time.Second)
		if err != nil {
			return err
		}
		if err := tr.Validate(); err != nil {
			return err
		}
		wl = heb.WorkloadFromTrace(tr)
	} else {
		var err error
		wl, err = heb.WorkloadNamed(wlName)
		if err != nil {
			return err
		}
		wl = wl.WithDuration(duration)
	}
	var demand, baSoC, scSoC []float64
	opts := heb.RunOptions{
		Duration: duration,
		Observer: func(s sim.StepInfo) {
			demand = append(demand, float64(s.Demand))
			baSoC = append(baSoC, s.BatterySoC)
			scSoC = append(scSoC, s.SupercapSoC)
		},
	}
	if patIn != "" {
		f, err := os.Open(patIn)
		if err != nil {
			return err
		}
		table, err := pat.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.Table = table
		fmt.Fprintf(w, "warm-started PAT from %s (%d entries)\n", patIn, table.Len())
	}
	var learned *pat.Table
	if patOut != "" {
		opts.TableSink = func(t *pat.Table) { learned = t }
	}
	var win *replayWindow
	if fl.enabled() {
		var werr error
		win, werr = wireFlight(w, &p, &opts, fl)
		if werr != nil {
			return werr
		}
	}
	res, err := p.Run(id, wl, opts)
	if err != nil {
		return err
	}
	if patOut != "" {
		if learned == nil {
			return fmt.Errorf("scheme %s has no PAT to persist", scheme)
		}
		f, err := os.Create(patOut)
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
		fmt.Fprintf(w, "saved learned PAT to %s (%d entries)\n", patOut, learned.Len())
	}
	fmt.Fprintln(w, ascii.Chart("demand W", demand, 100))
	fmt.Fprintln(w, ascii.Chart("batt SoC", baSoC, 100))
	fmt.Fprintln(w, ascii.Chart("SC SoC", scSoC, 100))
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

func capping(w io.Writer, p heb.Prototype, duration time.Duration) error {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return err
	}
	rows, err := heb.CompareWithDVFSCapping(p, wl, duration)
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

func scale(w io.Writer, p heb.Prototype, duration time.Duration) error {
	pts, err := heb.ScaleOutStudy(p, nil, duration)
	if err != nil {
		return err
	}
	return heb.WriteScaleOut(w, pts)
}

func curves(w io.Writer, p heb.Prototype, duration time.Duration) error {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return err
	}
	var demand, baSoC, scSoC []float64
	res, err := p.Run(heb.HEBD, wl.WithDuration(duration), heb.RunOptions{
		Duration: duration,
		Observer: func(s sim.StepInfo) {
			demand = append(demand, float64(s.Demand))
			baSoC = append(baSoC, s.BatterySoC)
			scSoC = append(scSoC, s.SupercapSoC)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, ascii.Chart("demand W", demand, 100))
	fmt.Fprintln(w, ascii.Chart("batt SoC", baSoC, 100))
	fmt.Fprintln(w, ascii.Chart("SC SoC", scSoC, 100))
	fmt.Fprintf(w, "run: %s\n", res)
	return nil
}

func summary(w io.Writer, p heb.Prototype, duration time.Duration, workers int) error {
	results, err := heb.Figure12(p, heb.Figure12Options{Duration: duration, Budget: lowBudget(p), Workers: workers})
	if err != nil {
		return err
	}
	// Fold REU from the solar runs into the same result set.
	reu, err := heb.Figure12d(p, solarDefault(p), duration, nil)
	if err != nil {
		return err
	}
	for i := range results {
		for j := range reu {
			if reu[j].Scheme == results[i].Scheme {
				meanREU := reu[j].Mean(func(r sim.Result) float64 { return r.REU })
				for k, v := range results[i].Results {
					v.REU = meanREU
					results[i].Results[k] = v
				}
			}
		}
	}
	return heb.WriteImprovementSummary(w, results)
}

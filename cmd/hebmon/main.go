// Command hebmon runs a HEB simulation while serving the prototype's
// real-time monitoring API (Figure 11, item 5) over HTTP, plus a
// cross-run registry over captured observability artifacts.
//
// The simulation is paced so that one simulated second takes
// 1/speedup wall seconds; with the default speedup of 60 a 24-hour run
// plays back in 24 minutes while the last -history steps serve live:
//
//	GET /healthz    200 "ok"
//	GET /latest     most recent snapshot as JSON (404 before the first step)
//	GET /history    last n snapshots, oldest first (?n= >= 1, default 60)
//	GET /summary    aggregate counters since start
//	GET /curves     demand/SoC sparklines as plain text (?w= width)
//
// /metrics exposes the engine's counters and gauges plus the
// process's own heb_proc_* runtime health in Prometheus text format, and
// /debug/pprof/ serves the standard Go profiles. GET / serves an
// embedded dependency-free dashboard that streams the live run over SSE
// and tables the registry.
//
// With -runs DIR the monitor also indexes every capture directory
// (manifest.json written by hebsim -obs) under DIR, re-scanning every
// -rescan interval, and serves:
//
//	GET /api/runs                         run index (?scheme= ?workload= ?status=)
//	GET /api/runs/{id}                    one run's manifest row
//	GET /api/runs/{id}/score              robust z-score vs the run's cohort (?window= ?min_cohort=)
//	GET /api/runs/{id}/compare/{other}    metric deltas + decision diff (?tol=)
//	GET /api/captures                     capture directories with status + bytes
//	GET /api/alerts                       live SLO alert events + unhealthy-run rollup
//	GET /readyz                           200 once the initial scan landed
//
// With -alerts report|strict the live run evaluates the online SLO rule
// engine; fired alerts stream over /events (kind "alert") and land on
// /api/alerts, and strict mode aborts the run at the first critical.
//
// SIGINT/SIGTERM shut the monitor down gracefully (in-flight requests
// get up to 5 s to drain).
//
// Usage:
//
//	hebmon -addr :8080 -scheme HEB-D -workload PR -duration 24h -speedup 60
//	hebmon -addr :8080 -runs out/ -rescan 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heb"
	"heb/internal/logging"
	"heb/internal/obs/alerts"
	"heb/internal/obs/registry"
	"heb/internal/sim"
)

// shutdownGrace bounds how long in-flight HTTP requests may drain.
const shutdownGrace = 5 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		scheme   = flag.String("scheme", "HEB-D", "power management scheme (BaOnly, BaFirst, SCFirst, HEB-F, HEB-S, HEB-D)")
		wl       = flag.String("workload", "PR", "Table 1 workload abbreviation")
		duration = flag.Duration("duration", 24*time.Hour, "simulated time")
		speedup  = flag.Float64("speedup", 60, "simulated seconds per wall second (0 = unpaced)")
		history  = flag.Int("history", 3600, "snapshots kept for /history")
		exit     = flag.Bool("exit", false, "exit when the run completes instead of keeping the monitor up")
		runsDir  = flag.String("runs", "", "capture root to index for /api/runs (directories holding manifest.json)")
		rescan   = flag.Duration("rescan", 2*time.Second, "registry re-scan interval for -runs")
		alertsF  = flag.String("alerts", "off", "online SLO alerting for the live run: off, report, or strict (strict aborts on the first critical; fired alerts stream on /events and /api/alerts)")
		logMode  = flag.String("log", logging.ModeText, "structured log format on stderr: text (deterministic) or json")
	)
	flag.Parse()
	if err := logging.Setup(os.Stderr, *logMode, logging.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "hebmon:", err)
		os.Exit(2)
	}
	alertMode, err := alerts.ParseMode(*alertsF)
	if err == nil {
		err = checkFlags(*duration, *speedup, *history, *rescan)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hebmon:", err)
		os.Exit(2)
	}

	if err := run(*addr, *scheme, *wl, *duration, *speedup, *history, *exit, *runsDir, *rescan, alertMode); err != nil {
		slog.Error("monitor failed", "err", err)
		os.Exit(1)
	}
}

// checkFlags rejects numeric flag values the monitor cannot honour.
func checkFlags(duration time.Duration, speedup float64, history int, rescan time.Duration) error {
	switch {
	case duration <= 0:
		return fmt.Errorf("-duration %v must be positive", duration)
	case !(speedup >= 0):
		return fmt.Errorf("-speedup %v must not be negative (0 = unpaced)", speedup)
	case history <= 0:
		return fmt.Errorf("-history %d must be positive", history)
	case rescan <= 0:
		return fmt.Errorf("-rescan %v must be positive", rescan)
	}
	return nil
}

func run(addr, scheme, wl string, duration time.Duration, speedup float64, history int, exitWhenDone bool, runsDir string, rescan time.Duration, alertMode alerts.Mode) error {
	id, err := heb.SchemeNamed(scheme)
	if err != nil {
		return err
	}
	w, err := heb.WorkloadNamed(wl)
	if err != nil {
		return err
	}

	m := newMonitor(history)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if runsDir != "" {
		m.reg = registry.New(runsDir)
		go func() {
			if err := m.reg.Scan(); err != nil {
				slog.Warn("initial registry scan failed", "root", runsDir, "err", err)
			} else {
				slog.Info("registry scanned", "root", runsDir,
					"captures", len(m.reg.Captures()), "runs", len(m.reg.Runs(registry.Filter{})))
			}
			m.ready.Store(true)
			m.reg.Watch(ctx, rescan)
		}()
	} else {
		m.ready.Store(true)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           m.mux(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	serveErr := make(chan error, 1)
	go func() {
		slog.Info("monitor listening", "addr", addr,
			"endpoints", "/ /healthz /readyz /latest /history /summary /curves /events /metrics /api/runs /api/captures /api/alerts /debug/pprof/")
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	observer := m.observe
	if speedup > 0 {
		pace := time.Duration(float64(time.Second) / speedup)
		observer = func(s sim.StepInfo) {
			m.observe(s)
			time.Sleep(pace)
		}
	}

	runDone := make(chan error, 1)
	go func() {
		p := heb.DefaultPrototype()
		var alertLog *alerts.Log[alerts.Report]
		if alertMode != alerts.ModeOff {
			alertLog = alerts.NewLog()
			p.Alert = alertMode
			p.Alerts = alertLog
		}
		slog.Info("running", "scheme", scheme, "workload", wl, "duration", duration, "speedup", speedup, "alerts", alertMode)
		res, err := p.Run(id, w.WithDuration(duration), heb.RunOptions{
			Duration: duration,
			Observer: observer,
			Events:   m.stream,
		})
		if err == nil {
			slog.Info("run complete", "result", res.String())
		}
		if alertLog != nil {
			for _, r := range alertLog.Reports() {
				slog.Info("alert verdict", "run", r.Run, "summary", r.Summary())
			}
		}
		runDone <- err
	}()

	// Wait for a terminal condition, then drain the server gracefully.
	var runErr error
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		slog.Info("signal received; shutting down")
	case runErr = <-runDone:
		if runErr == nil && !exitWhenDone {
			slog.Info("monitor stays up for inspection; Ctrl-C to quit")
			select {
			case <-ctx.Done():
				slog.Info("signal received; shutting down")
			case err := <-serveErr:
				return err
			}
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	slog.Info("monitor stopped")
	return runErr
}

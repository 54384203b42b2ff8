package heb

import (
	"context"
	"fmt"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/forecast"
	"heb/internal/power"
	"heb/internal/runner"
	"heb/internal/sim"
)

// PredictionAblationRow is one predictor variant's outcome.
type PredictionAblationRow struct {
	Predictor             string
	PeakMAPE              float64
	EnergyEfficiency      float64
	DowntimeServerSeconds float64
}

// PredictionAblation bounds the value of better forecasting for HEB-D:
// it runs the scheme with its naive-predictor variant (HEB-F), with the
// default Holt-Winters predictors (HEB-D), and with a perfect oracle
// primed by a recording pass. The oracle row answers "how much headroom
// is left above Holt-Winters?" — an experiment the paper motivates
// ("any sophisticated prediction approaches can be integrated") but does
// not run.
func PredictionAblation(p Prototype, w Workload, duration time.Duration) ([]PredictionAblationRow, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("heb: duration %v must be positive", duration)
	}
	w = w.WithDuration(duration)
	opts := RunOptions{Duration: duration}

	// The naive and Holt-Winters variants are independent and run in
	// parallel on the shared pool; the oracle run must wait for the
	// Holt-Winters pass, whose measured slot extremes prime it.
	firstTwo, err := sweep([]sweepRun{{p, HEBF, w, opts}, {p, HEBD, w, opts}}, 0)
	if err != nil {
		return nil, err
	}
	naive, hw := firstTwo[0], firstTwo[1]
	// The recording pass's measured slot extremes prime the oracle. The
	// oracle run's own slot extremes can drift slightly (different shed
	// decisions), which is the usual caveat of counterfactual replay.
	oracleRes, err := p.Run(HEBD, w, RunOptions{
		Duration:        duration,
		PeakPredictor:   forecast.NewOracle(hw.SlotPeaks),
		ValleyPredictor: forecast.NewOracle(hw.SlotValleys),
	})
	if err != nil {
		return nil, err
	}

	return []PredictionAblationRow{
		predictionRow("naive (HEB-F)", naive),
		predictionRow("holt-winters (HEB-D)", hw),
		predictionRow("oracle", oracleRes),
	}, nil
}

// predictionRow reports one predictor variant's run.
func predictionRow(name string, r sim.Result) PredictionAblationRow {
	return PredictionAblationRow{
		Predictor:             name,
		PeakMAPE:              r.PeakPredictionMAPE,
		EnergyEfficiency:      r.EnergyEfficiency,
		DowntimeServerSeconds: r.DowntimeServerSeconds,
	}
}

// CappingComparisonRow contrasts one mismatch-handling approach.
type CappingComparisonRow struct {
	Approach              string
	EnergyEfficiency      float64
	DowntimeServerSeconds float64
	DegradedServerSeconds float64
	UtilityPeakW          float64
}

// CompareWithDVFSCapping runs the paper's Section 1 contrast: handling
// power mismatches by performance scaling (a cluster DVFS governor that
// caps the whole cluster to the low frequency during peaks) versus by
// hybrid energy buffering (HEB-D). The capping baseline stays under
// budget without storage but pays in degraded server-time; HEB-D keeps
// servers at full speed by shaving from the buffers.
func CompareWithDVFSCapping(p Prototype, w Workload, duration time.Duration) ([]CappingComparisonRow, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("heb: duration %v must be positive", duration)
	}
	w = w.WithDuration(duration)

	// Both arms are independent simulations; run them concurrently. The
	// capping arm builds its storage-free engine directly rather than
	// through Prototype.Run, so it cannot be a sweep run and the pair
	// goes through runner.MapWorkers.
	runHEB := func() (sim.Result, error) {
		return p.Run(HEBD, w, RunOptions{Duration: duration})
	}
	// The capping baseline: no storage at all (null devices), the
	// governor handles mismatches.
	runCapping := func() (sim.Result, error) {
		ctrl, err := core.NewController(core.Config{
			SmallPeakWatts: p.SmallPeakWatts,
			Budget:         p.Budget,
			NumServers:     p.NumServers,
		}, core.NewBaOnly())
		if err != nil {
			return sim.Result{}, err
		}
		tr, err := w.Trace(p)
		if err != nil {
			return sim.Result{}, err
		}
		feed, err := power.NewUtilityFeed(p.Budget)
		if err != nil {
			return sim.Result{}, err
		}
		battery, err := esd.NewPool("battery", esd.Null{})
		if err != nil {
			return sim.Result{}, err
		}
		eng, err := sim.New(sim.Config{
			Step: p.Step, Slot: p.Slot, Duration: duration,
			Servers: p.Servers(), Workload: tr,
			Battery: battery, Feed: feed,
			Controller:  ctrl,
			DVFSCapping: true,
		})
		if err != nil {
			return sim.Result{}, err
		}
		return eng.Run(), nil
	}
	arms := []func() (sim.Result, error){runHEB, runCapping}
	results, err := runner.MapWorkers(context.Background(), len(arms), 0,
		func(_ context.Context, _, i int) (sim.Result, error) { return arms[i]() })
	if err != nil {
		return nil, err
	}
	heb, capping := results[0], results[1]

	row := func(name string, r sim.Result) CappingComparisonRow {
		return CappingComparisonRow{
			Approach:              name,
			EnergyEfficiency:      r.EnergyEfficiency,
			DowntimeServerSeconds: r.DowntimeServerSeconds,
			DegradedServerSeconds: r.DegradedServerSeconds,
			UtilityPeakW:          float64(r.UtilityPeak),
		}
	}
	return []CappingComparisonRow{
		row("DVFS capping (no storage)", capping),
		row("HEB-D (hybrid buffers)", heb),
	}, nil
}

// AgingAblationRow is one scheme's outcome on aged hardware.
type AgingAblationRow struct {
	Scheme                SchemeID
	PreAge                float64
	EnergyEfficiency      float64
	DowntimeServerSeconds float64
	ServedFromSupercapWh  float64
	ServedFromBatteryWh   float64
}

// AgingAblation exercises the paper's motivation for the online ±Δr
// optimization (Section 5.3): "with the battery and SC aging, their
// ability of handling power mismatching will decline", so the profiled
// table goes stale. Both HEB-S (static table) and HEB-D (dynamic) run on
// batteries pre-aged to preAge of their rated life with capacity fade and
// resistance growth enabled; HEB-D's drift corrections shift load toward
// the SCs as the tired batteries drain disproportionately fast, while
// HEB-S keeps trusting its stale profile.
func AgingAblation(p Prototype, w Workload, preAge float64, duration time.Duration) ([]AgingAblationRow, error) {
	if preAge < 0 || preAge > 1 {
		return nil, fmt.Errorf("heb: pre-age %g outside [0,1]", preAge)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("heb: duration %v must be positive", duration)
	}
	p.Battery.FadeAtEOL = 0.30
	p.Battery.ResistanceGrowthAtEOL = 1.5
	p.BatteryPreAge = preAge
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w = w.WithDuration(duration)
	opts := RunOptions{Duration: duration}
	runs := []sweepRun{{p, HEBS, w, opts}, {p, HEBD, w, opts}}
	results, err := sweep(runs, 0)
	if err != nil {
		return nil, err
	}
	rows := make([]AgingAblationRow, len(runs))
	for i, res := range results {
		rows[i] = AgingAblationRow{
			Scheme:                runs[i].scheme,
			PreAge:                preAge,
			EnergyEfficiency:      res.EnergyEfficiency,
			DowntimeServerSeconds: res.DowntimeServerSeconds,
			ServedFromSupercapWh:  res.ServedFromSupercap.Wh(),
			ServedFromBatteryWh:   res.ServedFromBattery.Wh(),
		}
	}
	return rows, nil
}

// SeasonalityAblation compares seasonless Holt smoothing against a full
// daily-seasonal Holt-Winters over a multi-day run — the configuration
// the paper's reference [46] targets. It reports peak-prediction MAPE per
// variant; seasonality needs at least two days of warm-up to pay off.
func SeasonalityAblation(p Prototype, w Workload, days int) ([]PredictionAblationRow, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if days < 2 {
		return nil, fmt.Errorf("heb: seasonality needs >= 2 days, got %d", days)
	}
	duration := time.Duration(days) * 24 * time.Hour
	w = w.WithDuration(duration)

	mkSeasonal := func() forecast.Predictor {
		cfg := forecast.DefaultHoltWintersConfig()
		cfg.SeasonLength = int((24 * time.Hour) / p.Slot)
		return forecast.MustNewHoltWinters(cfg)
	}
	// The two predictor variants are independent multi-day runs; run
	// them concurrently. The seasonal variant injects its own predictors,
	// so only the seasonless arm is poolable; RunWith routes each
	// accordingly.
	results, err := sweep([]sweepRun{
		{p, HEBD, w, RunOptions{Duration: duration}},
		{p, HEBD, w, RunOptions{Duration: duration, PeakPredictor: mkSeasonal(), ValleyPredictor: mkSeasonal()}},
	}, 0)
	if err != nil {
		return nil, err
	}
	return []PredictionAblationRow{
		predictionRow("holt (seasonless)", results[0]),
		predictionRow("holt-winters (daily season)", results[1]),
	}, nil
}

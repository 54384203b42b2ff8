package heb

import (
	"context"
	"fmt"
	"io"
	"time"

	"heb/internal/obs/prof"
	"heb/internal/runner"
	"heb/internal/units"
)

// ScalePoint is one cluster size of the scale-out study.
type ScalePoint struct {
	Servers               int
	BudgetW               float64
	StorageWh             float64
	EnergyEfficiency      float64
	DowntimeServerSeconds float64
	DowntimeFraction      float64
	// WallClock is the wall time of the engine's Run alone: the workload
	// trace is synthesized (and memoized) before the clock starts, so
	// trace-regeneration cost cannot pollute the throughput number.
	WallClock time.Duration
	// SimStepsPerSecond is engine ticks per wall-clock second for this
	// factor, measured around Run only (see WallClock). It is the
	// simulator-throughput headline of the study.
	SimStepsPerSecond float64
}

// ScaleOutStudy grows the prototype by integer factors — servers, budget
// and storage all scale together — and runs HEB-D on each size. The paper
// claims the distributed, reconfigurable architecture "is easy to scale
// out and configure"; the study checks that the per-server outcomes stay
// flat as the cluster grows, and doubles as a simulator throughput
// benchmark. The factors run through the shared sweep runner pinned to
// one worker: runs execute sequentially so each SimStepsPerSecond
// measures an uncontended engine, not co-scheduled neighbours.
func ScaleOutStudy(p Prototype, factors []int, duration time.Duration) ([]ScalePoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(factors) == 0 {
		factors = []int{1, 2, 4, 8}
	}
	if duration <= 0 {
		return nil, fmt.Errorf("heb: duration %v must be positive", duration)
	}
	for _, f := range factors {
		if f <= 0 {
			return nil, fmt.Errorf("heb: scale factor %d must be positive", f)
		}
	}
	// The study keeps its own pool rather than going through sweep: it
	// synthesizes each trace before starting the clock and times the run
	// alone, on one worker. Factors differ structurally (server count,
	// storage), so the cache only pays off when the same factor repeats.
	cache := NewRunCache(1)
	return runner.MapWorkers(context.Background(), len(factors), 1,
		func(_ context.Context, worker, i int) (ScalePoint, error) {
			f := factors[i]
			pp := p.scaledBy(f)

			w, err := WorkloadNamed("PR")
			if err != nil {
				return ScalePoint{}, err
			}
			w = w.WithDuration(duration)
			// Synthesize (and memoize) the trace before starting the
			// clock; Run's own lookup then hits the cache.
			prof.DoPhase(prof.PhaseTrace, func() { _, err = w.Trace(pp) })
			if err != nil {
				return ScalePoint{}, fmt.Errorf("heb: scale factor %d: %w", f, err)
			}
			start := time.Now()
			res, err := pp.RunWith(cache, worker, HEBD, w, RunOptions{Duration: duration})
			if err != nil {
				return ScalePoint{}, fmt.Errorf("heb: scale factor %d: %w", f, err)
			}
			elapsed := time.Since(start)
			pt := ScalePoint{
				Servers:               pp.NumServers,
				BudgetW:               float64(pp.Budget),
				StorageWh:             pp.StorageWh,
				EnergyEfficiency:      res.EnergyEfficiency,
				DowntimeServerSeconds: res.DowntimeServerSeconds,
				DowntimeFraction:      res.DowntimeFraction,
				WallClock:             elapsed,
			}
			if secs := elapsed.Seconds(); secs > 0 {
				pt.SimStepsPerSecond = float64(res.Steps) / secs
			}
			return pt, nil
		})
}

// scaledBy grows the prototype by factor f: servers, budget, storage and
// pool members all scale together.
func (p Prototype) scaledBy(f int) Prototype {
	p.NumServers *= f
	p.Budget = units.Power(float64(p.Budget) * float64(f))
	p.StorageWh *= float64(f)
	p.BatteryStrings *= f
	p.SCBanks *= f
	return p
}

// WriteScaleOut renders the study.
func WriteScaleOut(w io.Writer, pts []ScalePoint) error {
	if len(pts) == 0 {
		return fmt.Errorf("heb: nothing to report")
	}
	if _, err := fmt.Fprintf(w, "%8s %10s %11s %8s %14s %12s %14s\n",
		"servers", "budget(W)", "storage(Wh)", "EE", "downtime frac", "wall clock", "sim steps/s"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%8d %10.0f %11.0f %8.3f %14.4f %12v %14.0f\n",
			p.Servers, p.BudgetW, p.StorageWh, p.EnergyEfficiency,
			p.DowntimeFraction, p.WallClock.Round(time.Millisecond),
			p.SimStepsPerSecond); err != nil {
			return err
		}
	}
	return nil
}

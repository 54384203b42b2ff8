package runner

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"heb/internal/obs"
)

// Progress tracks a pool's live state for monitoring: how many cells are
// queued, running, done and failed, the workers currently busy, the
// cumulative per-cell wall time and an optional caller-fed unit counter
// (experiment sweeps feed it simulation steps to get a steps/s readout).
// All methods are safe for concurrent use; a Progress observes only —
// it never influences scheduling, so instrumented and bare sweeps produce
// identical results.
type Progress struct {
	total      atomic.Int64
	started    atomic.Int64
	done       atomic.Int64
	failed     atomic.Int64
	active     atomic.Int64
	cellNanos  atomic.Int64
	units      atomic.Int64
	ckpts      atomic.Int64
	firstStart atomic.Int64 // unix nanos of the first job start, 0 = none
}

// ProgressSnapshot is a point-in-time copy of a Progress.
type ProgressSnapshot struct {
	// Total is the job count of the sweep; Queued = Total - Started.
	Total, Queued int
	// Active is how many workers are inside a job right now.
	Active int
	// Done and Failed count completed cells (Failed ⊆ Done).
	Done, Failed int
	// CellSeconds is the cumulative wall time spent inside cells — across
	// workers it exceeds elapsed time, and CellSeconds/Done is the mean
	// per-cell wall time.
	CellSeconds float64
	// Units is the caller-fed work counter (e.g. simulation steps).
	Units int64
	// Checkpoints counts flight-recorder records taken across the sweep.
	Checkpoints int64
	// Elapsed is wall time since the first job started.
	Elapsed time.Duration
}

// Utilization is mean busy-worker fraction over the sweep so far.
func (s ProgressSnapshot) Utilization(workers int) float64 {
	if workers <= 0 || s.Elapsed <= 0 {
		return 0
	}
	u := s.CellSeconds / (s.Elapsed.Seconds() * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}

// UnitsPerSecond is the caller-fed unit counter over elapsed wall time.
func (s ProgressSnapshot) UnitsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Units) / s.Elapsed.Seconds()
}

// AddUnits feeds the generic work counter (call it from job fns).
func (p *Progress) AddUnits(n int64) { p.units.Add(n) }

// AddCheckpoints counts flight-recorder records as they are taken.
func (p *Progress) AddCheckpoints(n int64) { p.ckpts.Add(n) }

// Snapshot returns the current state.
func (p *Progress) Snapshot() ProgressSnapshot {
	s := ProgressSnapshot{
		Total:       int(p.total.Load()),
		Active:      int(p.active.Load()),
		Done:        int(p.done.Load()),
		Failed:      int(p.failed.Load()),
		CellSeconds: time.Duration(p.cellNanos.Load()).Seconds(),
		Units:       p.units.Load(),
		Checkpoints: p.ckpts.Load(),
	}
	s.Queued = s.Total - int(p.started.Load())
	if s.Queued < 0 {
		s.Queued = 0
	}
	if first := p.firstStart.Load(); first > 0 {
		s.Elapsed = time.Since(time.Unix(0, first))
	}
	return s
}

// jobStart marks a job entering a worker.
func (p *Progress) jobStart() time.Time {
	now := time.Now()
	p.firstStart.CompareAndSwap(0, now.UnixNano())
	p.started.Add(1)
	p.active.Add(1)
	return now
}

// jobEnd marks a job leaving a worker.
func (p *Progress) jobEnd(start time.Time, failed bool) {
	p.cellNanos.Add(int64(time.Since(start)))
	p.active.Add(-1)
	p.done.Add(1)
	if failed {
		p.failed.Add(1)
	}
}

// MapTraced is MapWorkers with live progress tracking and wall-clock
// spans. p (may be nil) observes each job's start, end, failure and wall
// time. tracer (may be nil) times each job with a "cell" span on its own
// track, grouped under sweep, so the trace shows the sweep's scheduling:
// per-worker busy time and the idle tail. names labels each job's track;
// a job past the end of names gets an empty name. The trace writer sorts
// tracks by (group, name), so track creation order does not change the
// trace's structure. Determinism is untouched — results still come back
// in job-index order and the first-failing-index error still wins.
func MapTraced[T any](ctx context.Context, n, workers int, p *Progress, tracer *obs.Tracer, sweep string, names []string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if p != nil {
		p.total.Add(int64(n))
	}
	return MapWorkers(ctx, n, workers, func(ctx context.Context, _, i int) (T, error) {
		var start time.Time
		if p != nil {
			start = p.jobStart()
		}
		var track *obs.Track
		if tracer != nil {
			name := ""
			if i < len(names) {
				name = names[i]
			}
			track = tracer.NewTrack(sweep, name)
			track.Begin("cell", "sweep")
		}
		v, err := fn(ctx, i)
		if track != nil {
			track.End()
		}
		if p == nil {
			return v, err
		}
		p.jobEnd(start, err != nil)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// Failed cells are worth a structured warning as they happen;
			// cancellation noise is not (every queued job "fails" then).
			slog.Warn("runner: cell failed", "cell", i, "err", err)
		}
		return v, err
	})
}

package runner

import (
	"context"

	"heb/internal/obs"
)

// MapTraced is MapProgress with each job timed by a wall-clock "cell"
// span on its own tracer track, grouped under sweep, so the trace shows
// the sweep's scheduling: per-worker busy time and the idle tail. tracer
// may be nil, making this exactly MapProgress. names labels each job's
// track; a job past the end of names gets an empty name. The trace
// writer sorts tracks by (group, name), so track creation order does
// not change the trace's structure.
func MapTraced[T any](ctx context.Context, n, workers int, p *Progress, tracer *obs.Tracer, sweep string, names []string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if tracer == nil {
		return MapProgress(ctx, n, workers, p, fn)
	}
	return MapProgress(ctx, n, workers, p, func(ctx context.Context, i int) (T, error) {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		track := tracer.NewTrack(sweep, name)
		track.Begin("cell", "sweep")
		v, err := fn(ctx, i)
		track.End()
		return v, err
	})
}

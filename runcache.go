package heb

import (
	"context"
	"fmt"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/forecast"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/runner"
	"heb/internal/sim"
	"heb/internal/units"
)

// runState is the mutable half of a run: every long-lived allocation a
// cell makes — device pools, PAT table, predictors, servers, feed,
// controller, engine. Every run, pooled or not, is built on one: a fresh
// run on a new state, a pooled one on a state a previous cell with the
// same structural configuration left behind, restored through the
// components' Reset paths instead of rebuilt. The controller and engine
// are held by value and bound by each run with Reset, which a zero value
// accepts. A runState is owned by one worker at a time, so it needs no
// locking. The observability sinks (event log, decision trace, probe
// rings) are deliberately NOT pooled: a Capture retains their backing
// slices after the run, so reusing them would corrupt earlier artifacts.
type runState struct {
	battery              *esd.Pool
	supercap             *esd.Pool
	table                *pat.Table // nil for table-free schemes
	image                *pat.Table // table as SeedPAT left it, before any run
	scheme               core.Scheme
	peakPred, valleyPred forecast.Predictor
	servers              []*power.Server
	feed                 *power.UtilityFeed
	ctrl                 core.Controller
	eng                  sim.Engine
}

// newRunState builds the state for scheme id at budget: pools at the
// initial SoC, the scheme with its predictors and seeded PAT, servers and
// a utility feed. keepImage clones the seeded PAT, before any run learns
// on it, so reset can restore it for the next run.
func (p Prototype) newRunState(id SchemeID, budget units.Power, keepImage bool) (*runState, error) {
	battery, supercap, err := p.BuildPools(id)
	if err != nil {
		return nil, err
	}
	battery.SetSoC(p.InitialSoC)
	var scCap units.Energy
	if supercap != nil {
		supercap.SetSoC(p.InitialSoC)
		scCap = supercap.Capacity()
	}
	scheme, peakPred, valleyPred, err := p.BuildScheme(id, scCap, battery.Capacity())
	if err != nil {
		return nil, err
	}
	feed, err := power.NewUtilityFeed(budget)
	if err != nil {
		return nil, err
	}
	st := &runState{
		battery:    battery,
		supercap:   supercap,
		scheme:     scheme,
		peakPred:   peakPred,
		valleyPred: valleyPred,
		servers:    p.Servers(),
		feed:       feed,
	}
	if table, ok := core.Table(scheme); ok {
		st.table = table
		if keepImage {
			st.image = table.Clone()
		}
	}
	return st, nil
}

// reset restores every pooled component the run does not rebind with
// Reset to the state newRunState builds, so a reused run is bit-for-bit
// identical to a fresh one. The feed holds only its budget, part of the
// key, so it carries over as it is. The per-run pieces (trace fn, sinks, seeds)
// are rebound afterwards by the caller. The seeded PAT depends only on
// the structural configuration the state is keyed by, so the table is
// restored from its image instead of being profiled again.
func (st *runState) reset(p Prototype) {
	st.battery.Reset()
	if p.BatteryPreAge > 0 {
		st.battery.PreAge(p.BatteryPreAge)
	}
	st.battery.SetSoC(p.InitialSoC)
	if st.supercap != nil {
		st.supercap.Reset()
		st.supercap.SetSoC(p.InitialSoC)
	}
	if st.table != nil {
		st.table.CopyFrom(st.image)
	}
	st.peakPred.Reset()
	st.valleyPred.Reset()
	for _, s := range st.servers {
		s.Reset()
	}
}

// RunCache pools runState values across the cells of a sweep, one
// private map per worker: worker w only ever touches slot w, and
// runner.MapWorkers guarantees jobs with the same worker index never
// run concurrently, so the cache needs no synchronization. Keys are
// poolKeys (seed excluded — the seed only drives the workload trace and
// the sensor-noise stream, both rebound per run), so a seeds × schemes
// grid reuses one engine per scheme per worker.
type RunCache struct {
	perWorker []map[poolKey]*runState
}

// NewRunCache builds a cache for the given worker count (as resolved by
// runner.Workers; values below 1 are treated as 1).
func NewRunCache(workers int) *RunCache {
	if workers < 1 {
		workers = 1
	}
	c := &RunCache{perWorker: make([]map[poolKey]*runState, workers)}
	for i := range c.perWorker {
		c.perWorker[i] = make(map[poolKey]*runState)
	}
	return c
}

// lookup returns worker's pooled state for key, or nil on a miss or an
// out-of-range worker index.
func (c *RunCache) lookup(worker int, key poolKey) *runState {
	if c == nil || worker < 0 || worker >= len(c.perWorker) {
		return nil
	}
	return c.perWorker[worker][key]
}

// store parks a newly built state in worker's slot for reuse.
func (c *RunCache) store(worker int, key poolKey, st *runState) {
	if c == nil || worker < 0 || worker >= len(c.perWorker) {
		return
	}
	c.perWorker[worker][key] = st
}

// sweepRun is one run of an experiment sweep.
type sweepRun struct {
	p        Prototype
	scheme   SchemeID
	workload Workload
	opts     RunOptions
}

// sweep is the one path every multi-run experiment takes: it executes
// runs on a pool of workers (<= 0 means GOMAXPROCS) through a shared
// RunCache, so runs with the same structural configuration reuse one
// worker's engine, and returns the results in run order. Pooled runs are
// bit-for-bit identical to fresh ones (RunWith), and the pool reports the
// lowest-index failure, so the outcome is the same for any worker count.
func sweep(runs []sweepRun, workers int) ([]sim.Result, error) {
	cache := NewRunCache(runner.Workers(workers, len(runs)))
	return runner.MapWorkers(context.Background(), len(runs), workers,
		func(_ context.Context, worker, i int) (sim.Result, error) {
			r := runs[i]
			res, err := r.p.RunWith(cache, worker, r.scheme, r.workload, r.opts)
			if err != nil {
				return sim.Result{}, fmt.Errorf("heb: %v on %s (seed %d): %w",
					r.scheme, r.workload.Name(), r.p.Seed, err)
			}
			return res, nil
		})
}

// poolKey is the structural configuration a runState is built for:
// everything that shapes construction except the seed (rebound per run)
// and the per-run wiring (withoutWiring). Two runs with equal pool keys
// build identical component graphs, so one's reset state can serve the
// other. Without its wiring a Prototype holds no pointer, slice, map or
// interface; Validate rejects a NaN field, which would never equal itself.
type poolKey struct {
	scheme SchemeID
	budget units.Power
	proto  Prototype
}

func (p Prototype) poolKey(id SchemeID, budget units.Power) poolKey {
	q := p.withoutWiring()
	q.Seed = 0
	return poolKey{scheme: id, budget: budget, proto: q}
}

// poolable reports whether a run may go through the cache: options that
// inject foreign components (a custom feed, table, predictors) or hand
// internal state to the caller (TableSink would leak the pooled table,
// which the next reuse resets) force the fresh path.
func (opts RunOptions) poolable() bool {
	return opts.Feed == nil && opts.Table == nil &&
		opts.PeakPredictor == nil && opts.ValleyPredictor == nil &&
		opts.TableSink == nil
}

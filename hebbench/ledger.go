package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"heb"
	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/sim"
	"heb/internal/trace"
	"heb/internal/units"
)

// The traced run attributes a cell's host time to the engine-internal
// layers by replay: it records the inputs one cell fed each layer
// (RunOptions.Observer and RunOptions.DecisionTrace), then drives a fresh
// instance of the layer with them through its public API and times those
// calls. Each replay reports its drift from the recorded run; a layer
// whose replay diverges gets no cost and its time stays unattributed.

// Divergence limits: beyond them a replay no longer stands for the
// recorded run.
const (
	maxDemandDrift   = 1e-9 // relative, on steps with every server on
	maxSoCDrift      = 0.01 // mean absolute state-of-charge error
	maxForecastDrift = 1e-6 // watts
	maxRatioDrift    = 1e-9
)

// activityThreshold is the engine's default utilization above which a
// step stamps a server's LRU activity.
const activityThreshold = 0.05

// minReplayNs is the least time a repeated replay loop accumulates before
// its per-call figure is taken.
const minReplayNs = 2e6

// inputs are what one recorded cell fed the engine's layers.
type inputs struct {
	c     cell
	p     heb.Prototype
	w     heb.Workload
	res   sim.Result
	steps []sim.StepInfo
	dec   []obs.DecisionRecord
}

func recordInputs(c cell) (*inputs, error) {
	in := &inputs{c: c, p: c.proto()}
	w, err := c.workload()
	if err != nil {
		return nil, err
	}
	in.w = w
	in.steps = make([]sim.StepInfo, 0, c.steps())
	in.res, err = in.p.Run(c.Scheme, w, heb.RunOptions{
		Duration:      c.Dur,
		Observer:      func(s sim.StepInfo) { in.steps = append(in.steps, s) },
		DecisionTrace: func(r obs.DecisionRecord) { in.dec = append(in.dec, r) },
	})
	if err != nil {
		return nil, fmt.Errorf("%s: record inputs: %w", c.key(), err)
	}
	return in, nil
}

// timerCost is what reading the clock adds to a timed interval: the
// least mean gap between consecutive clock reads over a few trials. It is
// subtracted from per-call timings; calls of a few tens of ns keep an
// error of several ns.
func timerCost() int64 {
	const n = 100000
	best := int64(math.MaxInt64)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		last := start
		for i := 0; i < n; i++ {
			last = time.Now()
		}
		if c := last.Sub(start).Nanoseconds() / n; c < best {
			best = c
		}
	}
	return best
}

// net subtracts the timer overhead of calls timed calls from ns.
func net(ns, calls, overhead int64) int64 {
	if v := ns - calls*overhead; v > 0 {
		return v
	}
	return 0
}

var sink float64

// replayTrace times Trace.At over the cell's steps; it returns the total
// time, the call count and the calls of one pass.
func replayTrace(in *inputs, tr *trace.Trace) (ns, calls int64) {
	step := in.p.Step
	n := len(in.steps)
	for ns < minReplayNs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += tr.At(time.Duration(i) * step)[0]
		}
		ns += time.Since(t0).Nanoseconds()
		calls += int64(n)
	}
	return ns, calls
}

// replayPower drives fresh servers and a fresh relay fabric with the
// cell's utilization rows. Drift is the largest relative demand error on
// steps where the recorded run had every server on.
func replayPower(in *inputs, tr *trace.Trace) (ns, steps int64, drift float64, err error) {
	step := in.p.Step
	rows := make([][]float64, len(in.steps))
	for i := range rows {
		rows[i] = tr.At(time.Duration(i) * step)
	}
	servers := in.p.Servers()
	fab, err := power.NewFabric(servers)
	if err != nil {
		return 0, 0, 0, err
	}
	demand := make([]units.Power, len(rows))
	for ns < minReplayNs {
		for _, s := range servers {
			s.Reset()
		}
		fab.Reset()
		t0 := time.Now()
		for i, row := range rows {
			now := time.Duration(i) * step
			for j, s := range servers {
				s.SetUtilization(row[j])
				if row[j] > activityThreshold {
					fab.Touch(s.ID(), now)
				}
			}
			demand[i] = fab.TotalDemand()
		}
		ns += time.Since(t0).Nanoseconds()
		steps += int64(len(rows))
	}
	for i, s := range in.steps {
		if s.Off == 0 && s.Demand > 0 {
			drift = math.Max(drift, math.Abs(float64(demand[i]-s.Demand))/float64(s.Demand))
		}
	}
	return ns, steps, drift, nil
}

// esdReplay is the outcome of replaying a cell's storage traffic.
type esdReplay struct {
	dischargeNs, discharges int64
	chargeNs, charges       int64
	restNs, rests           int64
	drift                   float64
}

// replayESD drives fresh pools, built as the cell built them, to follow
// the recorded per-step state of charge: each step asks a pool for the
// energy that closes the gap to the recorded state, discharging on
// mismatch steps and charging on surplus steps, as the engine does.
// Drift is the mean absolute state-of-charge error after each step.
func replayESD(in *inputs, overhead int64) (esdReplay, error) {
	var r esdReplay
	ba, sc, err := in.p.BuildPools(in.c.Scheme)
	if err != nil {
		return r, err
	}
	ba.SetSoC(in.p.InitialSoC)
	if sc != nil {
		sc.SetSoC(in.p.InitialSoC)
	}
	dt := in.p.Step
	const eps = 1e-9
	drive := func(pool *esd.Pool, target float64, mismatch bool) {
		gap := target - pool.SoC()
		req := units.Power(math.Abs(gap) * float64(pool.Capacity()) / dt.Seconds())
		t0 := time.Now()
		switch {
		case mismatch && gap < -eps:
			pool.Discharge(req, dt)
			r.dischargeNs += time.Since(t0).Nanoseconds()
			r.discharges++
		case !mismatch && gap > eps:
			pool.Charge(req, dt)
			r.chargeNs += time.Since(t0).Nanoseconds()
			r.charges++
		default:
			pool.Rest(dt)
			r.restNs += time.Since(t0).Nanoseconds()
			r.rests++
		}
		r.drift += math.Abs(pool.SoC() - target)
	}
	for _, s := range in.steps {
		drive(ba, s.BatterySoC, s.Mismatch)
		if sc != nil {
			drive(sc, s.SupercapSoC, s.Mismatch)
		}
	}
	r.dischargeNs = net(r.dischargeNs, r.discharges, overhead)
	r.chargeNs = net(r.chargeNs, r.charges, overhead)
	r.restNs = net(r.restNs, r.rests, overhead)
	if n := r.discharges + r.charges + r.rests; n > 0 {
		r.drift /= float64(n)
	}
	return r, nil
}

// replayForecast feeds fresh predictors, of the kind the scheme uses,
// the recorded slot extremes: one Predict and one Observe per predictor
// and slot. Drift is the largest forecast error against the recorded one.
func replayForecast(in *inputs) (ns, updates int64, drift float64, err error) {
	// Every scheme but HEB-F forecasts with the same Holt smoothing; a
	// table-free scheme builds it without seeding a PAT.
	kind := heb.SCFirst
	if in.c.Scheme == heb.HEBF {
		kind = heb.HEBF
	}
	_, peak, valley, err := in.p.BuildScheme(kind, 0, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	first := true
	for ns < minReplayNs/4 || first {
		peak.Reset()
		valley.Reset()
		for _, r := range in.dec {
			t0 := time.Now()
			pp, vp := peak.Predict(), valley.Predict()
			if r.Completed {
				peak.Observe(r.ActualPeakW)
				valley.Observe(r.ActualValleyW)
			}
			ns += time.Since(t0).Nanoseconds()
			updates += 2
			if first {
				drift = math.Max(drift, math.Abs(math.Max(0, pp)-r.PredictedPeakW))
				drift = math.Max(drift, math.Abs(math.Max(0, vp)-r.PredictedValleyW))
			}
		}
		first = false
		if len(in.dec) == 0 {
			break
		}
	}
	return ns, updates, drift, nil
}

// poolCaps are the capacities the cell's controller planned against.
func poolCaps(in *inputs) (scCap, baCap units.Energy, err error) {
	ba, sc, err := in.p.BuildPools(in.c.Scheme)
	if err != nil {
		return 0, 0, err
	}
	if sc != nil {
		scCap = sc.Capacity()
	}
	return scCap, ba.Capacity(), nil
}

// patReplay is the outcome of seeding a table and replaying its lookups.
type patReplay struct {
	seedNs            int64
	added, kept       int
	lookupNs, lookups int64
}

// replayPAT seeds a reset table sized for the cell, as the pooled run
// path does every cell, and replays the recorded slots' table lookups.
func replayPAT(in *inputs) (patReplay, error) {
	var r patReplay
	cfg := in.p.PATConfig
	if in.c.Scheme == heb.HEBS {
		cfg.LevelBins = in.p.LimitedPATBins
	}
	table, err := pat.New(cfg)
	if err != nil {
		return r, err
	}
	scCap, baCap, err := poolCaps(in)
	if err != nil {
		return r, err
	}
	maxPM := units.Power(float64(in.p.NumServers)*float64(in.p.Server.PeakPower)) - in.p.Budget
	if maxPM < 0 {
		maxPM = 0
	}
	table.Reset()
	t0 := time.Now()
	r.added = core.SeedPAT(table, scCap, baCap, maxPM, core.DefaultBatteryDerate, in.p.ProfileNoise)
	r.seedNs = time.Since(t0).Nanoseconds()
	r.kept = table.Len()
	var keys []obs.DecisionRecord
	for _, d := range in.dec {
		if d.PATLookups > 0 {
			keys = append(keys, d)
		}
	}
	for len(keys) > 0 && r.lookupNs < minReplayNs/4 {
		t0 := time.Now()
		for _, d := range keys {
			rt, _, _ := table.Lookup(d.SCFrac, d.BAFrac, units.Power(d.PredictedOverW))
			sink += rt
		}
		r.lookupNs += time.Since(t0).Nanoseconds()
		r.lookups += int64(len(keys))
	}
	return r, nil
}

// coreReplay is the outcome of a controller replay.
type coreReplay struct {
	planNs, plans      int64
	finishNs, finishes int64
	reps               int
	badSlots, slots    int
	maxRatioDiff       float64
	lookups, misses    int
}

// replayCore drives a fresh controller and scheme, built as the cell
// built them, through the recorded slots: PlanSlot on the recorded
// sensor readings and FinishSlot on the recorded outcome. Every replayed
// mode, ratio and PAT lookup/miss count must match the record.
func replayCore(in *inputs, overhead int64) (coreReplay, error) {
	var r coreReplay
	scCap, baCap, err := poolCaps(in)
	if err != nil {
		return r, err
	}
	p := in.p
	for r.reps == 0 || (r.planNs+r.finishNs < minReplayNs && r.reps < 20) {
		t0 := time.Now()
		scheme, peak, valley, err := p.BuildScheme(in.c.Scheme, scCap, baCap)
		if err != nil {
			return r, err
		}
		ctrl, err := core.NewController(core.Config{
			SmallPeakWatts:  p.SmallPeakWatts,
			Budget:          p.Budget,
			NumServers:      p.NumServers,
			PeakPredictor:   peak,
			ValleyPredictor: valley,
			SensorNoise:     p.SensorNoise,
			NoiseSeed:       p.Seed,
		}, scheme)
		if err != nil {
			return r, err
		}
		build := time.Since(t0)
		var planNs, finishNs int64
		for _, d := range in.dec {
			t := time.Now()
			_, dec := ctrl.PlanSlot(units.WattHours(d.SCAvailWh), scCap, units.WattHours(d.BAAvailWh), baCap)
			planNs += time.Since(t).Nanoseconds()
			r.plans++
			lookups, misses := ctrl.LastPlanPAT()
			if r.reps == 0 {
				r.slots++
				diff := math.Abs(dec.Ratio - d.Ratio)
				r.maxRatioDiff = math.Max(r.maxRatioDiff, diff)
				if dec.Mode.String() != d.Mode || diff > maxRatioDrift ||
					lookups != d.PATLookups || misses != d.PATMisses {
					r.badSlots++
				}
				r.lookups += d.PATLookups
				r.misses += d.PATMisses
			}
			if d.Completed {
				t = time.Now()
				ctrl.FinishSlot(core.SlotResult{
					ActualPeak:   units.Power(d.ActualPeakW),
					ActualValley: units.Power(d.ActualValleyW),
					ActualPM:     units.Power(d.ActualPMW),
					ActualOver:   units.Power(d.ActualOverW),
					SCFracEnd:    d.SCFracEnd,
					BAFracEnd:    d.BAFracEnd,
					RatioUsed:    d.RatioUsed,
				})
				finishNs += time.Since(t).Nanoseconds()
				r.finishes++
			}
		}
		r.planNs += planNs
		r.finishNs += finishNs
		r.reps++
		// Rebuilding a large seeded table costs far more than the
		// replay it enables; one pass then suffices.
		if build > 20*time.Millisecond {
			break
		}
	}
	r.planNs = net(r.planNs, r.plans, overhead)
	r.finishNs = net(r.finishNs, r.finishes, overhead)
	return r, nil
}

// ledgerTotals accumulates one workload's replays. Pass figures are
// per single pass over a cell, summed over the replayed cells.
type ledgerTotals struct {
	steps int64

	traceNs, traceCalls         int64
	powerNs, powerSteps         int64
	powerDrift                  float64
	esd                         esdReplay
	esdDriftSum                 float64
	esdCells                    int
	fcNs, fcUpdates             int64
	fcDrift                     float64
	patSeedNs                   int64
	patAdded, patKept           int
	patLookupNs, patLookups     int64
	corePass                    float64
	corePlanNs, corePlans       int64
	coreFinishNs, coreFinishes  int64
	coreBad, coreSlots          int
	patRecLookups, patRecMisses int
}

// replayCells are the cells the traced run replays: one seed's grid.
func (b *bench) replayCells() []cell {
	var out []cell
	for _, c := range b.spec.Cells {
		if c.Seed == b.seed {
			out = append(out, c)
		}
	}
	return out
}

// replay records and replays every replay cell, adding one span per
// layer and cell to tr.
func (b *bench) replay(tr *tracer) (ledgerTotals, error) {
	var lt ledgerTotals
	overhead := timerCost()
	for _, c := range b.replayCells() {
		in, err := recordInputs(c)
		if err != nil {
			return lt, err
		}
		b.check(b.sameAsWarm(c, in.res))
		id := tr.newCell()
		root := tr.begin("replay", -1, id)
		steps := int64(len(in.steps))
		lt.steps += steps

		traceTr, err := in.w.Trace(in.p)
		if err != nil {
			return lt, err
		}
		ns, calls := replayTrace(in, traceTr)
		tr.add("trace.At", root, id, calls, ns)
		lt.traceNs += ns
		lt.traceCalls += calls

		pns, psteps, pdrift, err := replayPower(in, traceTr)
		if err != nil {
			return lt, err
		}
		tr.add("power.demand", root, id, psteps, pns)
		lt.powerNs += pns
		lt.powerSteps += psteps
		lt.powerDrift = math.Max(lt.powerDrift, pdrift)

		er, err := replayESD(in, overhead)
		if err != nil {
			return lt, err
		}
		tr.add("esd.Discharge", root, id, er.discharges, er.dischargeNs)
		tr.add("esd.Charge", root, id, er.charges, er.chargeNs)
		tr.add("esd.Rest", root, id, er.rests, er.restNs)
		lt.esd.dischargeNs += er.dischargeNs
		lt.esd.discharges += er.discharges
		lt.esd.chargeNs += er.chargeNs
		lt.esd.charges += er.charges
		lt.esd.restNs += er.restNs
		lt.esd.rests += er.rests
		lt.esdDriftSum += er.drift
		lt.esdCells++

		fns, fup, fdrift, err := replayForecast(in)
		if err != nil {
			return lt, err
		}
		tr.add("forecast.update", root, id, fup, fns)
		lt.fcNs += fns
		lt.fcUpdates += fup
		lt.fcDrift = math.Max(lt.fcDrift, fdrift)

		if c.Scheme == heb.HEBD || c.Scheme == heb.HEBS {
			pr, err := replayPAT(in)
			if err != nil {
				return lt, err
			}
			tr.add("pat.SeedPAT", root, id, 1, pr.seedNs)
			tr.add("pat.Lookup", root, id, pr.lookups, pr.lookupNs)
			lt.patSeedNs += pr.seedNs
			lt.patAdded += pr.added
			lt.patKept += pr.kept
			lt.patLookupNs += pr.lookupNs
			lt.patLookups += pr.lookups
		}

		cr, err := replayCore(in, overhead)
		if err != nil {
			return lt, err
		}
		tr.add("core.PlanSlot", root, id, cr.plans, cr.planNs)
		tr.add("core.FinishSlot", root, id, cr.finishes, cr.finishNs)
		lt.corePlanNs += cr.planNs
		lt.corePlans += cr.plans
		lt.coreFinishNs += cr.finishNs
		lt.coreFinishes += cr.finishes
		lt.corePass += float64(cr.planNs+cr.finishNs) / float64(cr.reps)
		lt.coreBad += cr.badSlots
		lt.coreSlots += cr.slots
		lt.patRecLookups += cr.lookups
		lt.patRecMisses += cr.misses
		tr.end(root, 1, 0)
	}
	return lt, nil
}

// tap is one engine hook switched on alone.
type tap struct {
	metric string
	on     func(*heb.Prototype, *heb.RunOptions)
}

var taps = []tap{
	{"obs.tap_capture_ns_per_step", func(p *heb.Prototype, _ *heb.RunOptions) { p.Capture = obs.NewCapture() }},
	{"obs.tap_probes_ns_per_step", func(p *heb.Prototype, _ *heb.RunOptions) { p.ProbeEvery = probeEvery }},
	{"obs.tap_audit_ns_per_step", func(p *heb.Prototype, _ *heb.RunOptions) { p.Audit = obs.AuditModeReport }},
	{"obs.tap_tracer_ns_per_step", func(p *heb.Prototype, _ *heb.RunOptions) { p.Tracer = obs.NewTracer() }},
	{"obs.tap_checkpoint_ns_per_step", func(p *heb.Prototype, o *heb.RunOptions) {
		p.CheckpointEvery = 1
		o.CheckpointSink = func(obs.CheckpointRecord) {}
	}},
	{"alerts.tap_ns_per_step", func(p *heb.Prototype, _ *heb.RunOptions) { p.Alert = alerts.ModeReport }},
}

// tapReps is how many times each cell runs per hook configuration.
const tapReps = 3

// tapCosts runs every replay cell with all hooks off and with each hook
// on alone, and returns each hook's cost per engine step: the summed
// per-cell median with the hook minus the median with none.
func (b *bench) tapCosts(tr *tracer) (map[string]float64, error) {
	cache := heb.NewRunCache(1)
	cells := b.replayCells()
	// times[v][cell] holds variant v's samples; v 0 is all hooks off.
	times := make([][][]float64, len(taps)+1)
	for v := range times {
		times[v] = make([][]float64, len(cells))
	}
	var steps float64
	for rep := 0; rep < tapReps; rep++ {
		for i, c := range cells {
			w, err := c.workload()
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				steps += float64(c.steps())
			}
			for k := 0; k <= len(taps); k++ {
				v := (k + rep + i) % (len(taps) + 1) // rotate the order
				p := c.proto()
				opts := heb.RunOptions{Duration: c.Dur}
				name := "tap.off"
				if v > 0 {
					taps[v-1].on(&p, &opts)
					name = taps[v-1].metric
				}
				id := tr.newCell()
				s := tr.begin(name, -1, id)
				t0 := time.Now()
				res, err := p.RunWith(cache, 0, c.Scheme, w, opts)
				times[v][i] = append(times[v][i], float64(time.Since(t0).Nanoseconds()))
				tr.end(s, 1, 0)
				if err == nil {
					err = b.sameAsWarm(c, res)
				}
				b.check(err)
			}
		}
	}
	out := map[string]float64{}
	for v, t := range taps {
		var d float64
		for i := range cells {
			d += median(times[v+1][i]) - median(times[0][i])
		}
		out[t.metric] = d / steps
	}
	return out, nil
}

// perLayerMetrics assembles the traced run's ledger. Layers whose replay
// diverged are reported as 0 and named in the returned list.
func (b *bench) perLayerMetrics(tr *tracer, ph phase, probes []op, genMs []float64, lt ledgerTotals, tapNs map[string]float64) (map[string]float64, []string) {
	m := map[string]float64{}
	var diverged []string

	// Timed ops, untraced passes only.
	var runNs, cellSteps, mismatch, relays int64
	var fresh, reused, traced, untraced []float64
	var busy time.Duration
	for _, o := range ph.Ops {
		busy += o.End - o.Start
		ms := float64(o.CellNs) / 1e6
		if o.Traced {
			traced = append(traced, ms)
			continue
		}
		untraced = append(untraced, ms)
		runNs += o.RunNs
		cellSteps += int64(o.CellSteps)
		mismatch += int64(o.Mismatch)
		relays += o.Relays
		if o.Fresh {
			fresh = append(fresh, ms)
		} else {
			reused = append(reused, ms)
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	orZero := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	m["workload.generate_ms"] = orZero(median(genMs))
	m["trace.at_ns"] = div(float64(lt.traceNs), float64(lt.traceCalls))
	m["power.demand_ns_per_step"] = div(float64(lt.powerNs), float64(lt.powerSteps))
	m["power.relay_switches_per_kstep"] = div(float64(relays)*1000, float64(cellSteps))
	m["power.replay_demand_drift"] = lt.powerDrift
	m["esd.discharge_ns"] = div(float64(lt.esd.dischargeNs), float64(lt.esd.discharges))
	m["esd.charge_ns"] = div(float64(lt.esd.chargeNs), float64(lt.esd.charges))
	esdNs := float64(lt.esd.dischargeNs + lt.esd.chargeNs + lt.esd.restNs)
	m["esd.ns_per_step"] = div(esdNs, float64(lt.steps))
	m["esd.replay_soc_drift"] = div(lt.esdDriftSum, float64(lt.esdCells))
	m["forecast.update_ns"] = div(float64(lt.fcNs), float64(lt.fcUpdates))
	m["forecast.replay_drift_w"] = lt.fcDrift
	if lt.patAdded > 0 {
		m["pat.seed_ms"] = float64(lt.patSeedNs) / 1e6 / float64(b.tableCells())
		m["pat.seed_kept_ratio"] = float64(lt.patKept) / float64(lt.patAdded)
	} else {
		m["pat.seed_ms"], m["pat.seed_kept_ratio"] = 0, 0
	}
	m["pat.lookup_ns"] = div(float64(lt.patLookupNs), float64(lt.patLookups))
	m["pat.miss_ratio"] = div(float64(lt.patRecMisses), float64(lt.patRecLookups))
	m["core.plan_us"] = div(float64(lt.corePlanNs)/1e3, float64(lt.corePlans))
	m["core.finish_us"] = div(float64(lt.coreFinishNs)/1e3, float64(lt.coreFinishes))
	m["core.replay_drift"] = div(float64(lt.coreBad), float64(lt.coreSlots))

	// Attribution: layer time per engine step of one pass over the
	// replayed cells, against the timed cells' host time per step.
	cellNsPerStep := div(float64(runNs), float64(cellSteps))
	steps := float64(lt.steps)
	attributed := 0.0
	attr := func(layer string, ok bool, nsPerStep float64, metrics ...string) {
		if ok {
			attributed += nsPerStep
			return
		}
		diverged = append(diverged, layer)
		for _, name := range metrics {
			m[name] = 0
		}
	}
	attr("trace", true, m["trace.at_ns"], "trace.at_ns") // one lookup per step
	attr("power", lt.powerDrift <= maxDemandDrift, m["power.demand_ns_per_step"], "power.demand_ns_per_step")
	attr("esd", m["esd.replay_soc_drift"] <= maxSoCDrift, div(esdNs, steps), "esd.discharge_ns", "esd.charge_ns", "esd.ns_per_step")
	// The controller's plan and finish contain forecasting and PAT
	// lookups, so those two are not added again.
	coreOK := lt.coreBad == 0 && lt.fcDrift <= maxForecastDrift
	attr("core", coreOK, div(lt.corePass, steps), "core.plan_us", "core.finish_us", "forecast.update_ns", "pat.lookup_ns")
	attr("pat.seed", true, div(float64(lt.patSeedNs), steps), "pat.seed_ms")
	for _, t := range taps {
		v := tapNs[t.metric]
		m[t.metric] = v
		attributed += v
	}
	m["sim.cell_ns_per_step"] = cellNsPerStep
	m["sim.unattributed_ns_per_step"] = cellNsPerStep - attributed
	m["sim.mismatch_frac"] = div(float64(mismatch), float64(cellSteps))

	m["heb.reuse_ratio"] = div(float64(len(reused)), float64(len(untraced)))
	m["heb.fresh_cell_ms_p50"] = orZero(median(fresh))
	m["heb.reused_cell_ms_p50"] = orZero(median(reused))
	m["heb.alloc_kb_per_cell"] = div(float64(ph.AllocBytes)/1024, float64(len(ph.Ops)))
	m["heb.allocs_per_cell"] = div(float64(ph.Mallocs), float64(len(ph.Ops)))
	m["runner.busy_frac"] = div(busy.Seconds(), float64(b.spec.Workers)*ph.Wall.Seconds())
	m["runner.tail_idle_ms"] = float64((ph.Wall - ph.FirstIdle).Nanoseconds()) / 1e6

	var ckptBytes, events float64
	var records, deltas int
	fl := flightOps(b.spec, ph, probes)
	for _, o := range fl {
		ckptBytes += float64(o.CkptBytes)
		records += o.CkptRecords
		deltas += o.CkptDeltas
		events += float64(o.Events)
	}
	m["obs.ckpt_kb_per_record"] = div(ckptBytes/1024, float64(records))
	m["obs.ckpt_delta_share"] = div(float64(deltas), float64(records))
	m["obs.events_per_cell"] = div(events, float64(len(fl)))
	m["obs.read_ms"] = orZero(median(tr.durations("obs.ReadCheckpoints")))
	m["obs.validate_ms"] = orZero(median(tr.durations("obs.ValidateCheckpoints")))
	m["obs.materialize_ms"] = orZero(median(tr.durations("obs.MaterializeAt")))
	m["obs.write_files_ms"] = orZero(median(tr.durations("obs.WriteFiles")))

	m["runtime.gc_cpu_frac"] = div(ph.GCCPU, ph.TotalCPU)
	m["bench.trace_overhead_ms"] = orZero(median(traced) - median(untraced))
	sort.Strings(diverged)
	m["replay.diverged_layers"] = float64(len(diverged))
	return m, diverged
}

// tableCells counts the replayed cells whose scheme seeds a PAT.
func (b *bench) tableCells() int {
	n := 0
	for _, c := range b.replayCells() {
		if c.Scheme == heb.HEBD || c.Scheme == heb.HEBS {
			n++
		}
	}
	return n
}

// Package heb is the public API of the HEB reproduction: it assembles the
// paper's prototype (six low-power servers, a hybrid super-capacitor +
// lead-acid buffer, a budgeted utility feed or a rooftop solar array, and
// the hControl power-management framework) and exposes one runner per
// table and figure of the evaluation (see experiments.go).
//
// Reference: Liu et al., "HEB: Deploying and Managing Hybrid Energy
// Buffers for Improving Datacenter Efficiency and Economy", ISCA 2015.
package heb

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/forecast"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/runner"
	"heb/internal/sim"
	"heb/internal/units"
)

// SchemeID identifies one of the six evaluated power management schemes
// (paper Table 2).
type SchemeID int

// The Table 2 schemes.
const (
	BaOnly SchemeID = iota
	BaFirst
	SCFirst
	HEBF
	HEBS
	HEBD
)

// AllSchemes lists the Table 2 schemes in paper order.
func AllSchemes() []SchemeID {
	return []SchemeID{BaOnly, BaFirst, SCFirst, HEBF, HEBS, HEBD}
}

// String names the scheme as the paper does.
func (s SchemeID) String() string {
	switch s {
	case BaOnly:
		return "BaOnly"
	case BaFirst:
		return "BaFirst"
	case SCFirst:
		return "SCFirst"
	case HEBF:
		return "HEB-F"
	case HEBS:
		return "HEB-S"
	case HEBD:
		return "HEB-D"
	default:
		return fmt.Sprintf("SchemeID(%d)", int(s))
	}
}

// Hybrid reports whether the scheme deploys a super-capacitor pool.
func (s SchemeID) Hybrid() bool { return s != BaOnly }

// Prototype describes the scale-down research platform of Section 6.
type Prototype struct {
	// NumServers is the cluster size (paper: 6).
	NumServers int
	// Server is the per-node power model.
	Server power.ServerConfig
	// Budget is the provisioned utility power (paper: 260 W for six
	// servers).
	Budget units.Power
	// StorageWh is the total usable buffer capacity in watt-hours; all
	// schemes get the same total so they share worst-case emergency
	// capability (Section 7's equal-capacity comparison).
	StorageWh float64
	// SCRatio is the super-capacitor share of StorageWh for hybrid
	// schemes (paper initial ratio 3:7 → 0.3).
	SCRatio float64
	// BatteryStrings and SCBanks split each pool into parallel members.
	BatteryStrings, SCBanks int
	// Battery and Supercap are the module base configs; capacities are
	// rescaled to meet StorageWh.
	Battery  esd.BatteryConfig
	Supercap esd.SupercapConfig
	// Step and Slot are the engine tick and the control interval.
	Step, Slot time.Duration
	// Topology is the deployment architecture (Section 4.2).
	Topology power.Topology
	// SmallPeakWatts is the controller's peak classification threshold.
	SmallPeakWatts units.Power
	// PATConfig tunes HEB-D's allocation table; HEB-S uses a coarser
	// variant of it (LimitedPATBins bins) per the paper's "limited
	// profiling information".
	PATConfig      pat.Config
	LimitedPATBins int
	// ProfileNoise models pilot-profiling inaccuracy in seeded tables.
	ProfileNoise float64
	// InitialSoC is the buffers' state of charge at run start; starting
	// below full makes the energy-efficiency metric reflect full
	// round-trip cycling rather than a free initial store.
	InitialSoC float64
	// SensorNoise injects multiplicative error on the controller's
	// buffer-availability readings (fault-injection studies; 0 = off).
	SensorNoise float64
	// BatteryPreAge pre-consumes this fraction of the batteries' rated
	// life before the run (aging studies; requires the battery config's
	// FadeAtEOL / ResistanceGrowthAtEOL to be set to have any effect).
	BatteryPreAge float64
	// Seed drives workload generation (and the injected sensor noise).
	Seed int64

	// Capture, when set, collects every run's observability artifacts
	// (event log, decision trace, deterministic counters) keyed by the
	// run's configuration fingerprint. A single Capture may be shared by
	// all cells of a parallel sweep; obs.Capture.WriteFiles then produces
	// files that are byte-identical for any worker count. Nil (the
	// default) costs nothing.
	Capture *obs.Capture

	// Progress, when set, receives each run's completed step count as
	// units (runner.Progress.AddUnits), giving parallel sweeps a live
	// steps/s readout. Observe-only: it never affects results.
	Progress *runner.Progress

	// ProbeEvery enables per-device probes: every ProbeEvery engine steps
	// each battery string and SC bank is sampled (SoC, voltage, charge
	// wells, Ah-throughput) into a per-run recorder whose samples land in
	// the Capture's probes.jsonl. Zero (the default) disables probes and
	// costs nothing.
	ProbeEvery int
	// ProbeRing bounds the retained samples per device (0 selects
	// obs.DefaultProbeRing); older samples are overwritten and counted.
	ProbeRing int

	// CheckpointEvery enables the flight recorder: every CheckpointEvery
	// control slots the run's engine state (accumulators, devices, relay
	// fabric, controller, feed) is serialized into a hash-chained
	// obs.CheckpointRecord. Records land in the Capture's
	// checkpoints.jsonl and in RunOptions.CheckpointSink. Zero (the
	// default) disables checkpointing and costs nothing — the engine
	// never assembles state.
	CheckpointEvery int

	// Audit and Alert select the modes of the invariant checker's two
	// components (see sim.Checker). Audit drives the energy-conservation
	// auditor: report mode attaches per-run AuditReports to the Capture
	// and Audits collectors. Alert drives the SLO rule engine: report mode
	// evaluates the rules on every step, attaches fired alerts to the
	// Capture's alerts.jsonl and stamps a per-run health verdict
	// (ok/warn/critical) into the manifest. Strict mode on either aborts a
	// run once that component has failed (any audit violation, any
	// critical alert) and surfaces it as an error from Run.
	Audit alerts.Mode
	// Audits, when set, collects every run's AuditReport (thread-safe, so
	// one collector may serve a parallel sweep).
	Audits *obs.AuditLog

	// Alert selects the rule engine's mode (see Audit).
	Alert alerts.Mode
	// AlertRules overrides the rule thresholds; the zero value selects
	// alerts.DefaultRules (a zero field keeps that rule's default, a
	// negative one disables the rule).
	AlertRules alerts.Rules
	// Alerts, when set, collects every run's alert report (thread-safe,
	// so one collector may serve a parallel sweep).
	Alerts *alerts.Log[alerts.Report]

	// Tracer, when set, records one wall-clock "run" span per run on a
	// fresh per-run track named by the run key, so parallel sweeps never
	// share a (single-writer) track. The trace shows when each run ran
	// and for how long; where a run spends its time is answered by the
	// phase-labelled pprof profiles (hebsim -profile).
	Tracer *obs.Tracer
	// TraceCell is the trace group (Perfetto process) this prototype's
	// runs are filed under; sweeps set it per experiment cell. Empty uses
	// "run".
	TraceCell string
}

// DefaultPrototype returns the paper's Section 6 configuration.
func DefaultPrototype() Prototype {
	return Prototype{
		NumServers:     6,
		Server:         power.DefaultServerConfig(),
		Budget:         280,
		StorageWh:      120,
		SCRatio:        0.3,
		BatteryStrings: 2,
		SCBanks:        2,
		Battery:        esd.DefaultBatteryConfig(),
		Supercap:       esd.DefaultSupercapConfig(),
		Step:           time.Second,
		Slot:           10 * time.Minute,
		Topology:       power.TopologyRackLevel,
		SmallPeakWatts: 45,
		PATConfig:      pat.DefaultConfig(),
		LimitedPATBins: 3,
		ProfileNoise:   0.22,
		InitialSoC:     0.55,
		Seed:           42,
	}
}

// Validate reports the first invalid field.
func (p Prototype) Validate() error {
	switch {
	case p.NumServers <= 0:
		return fmt.Errorf("heb: server count %d must be positive", p.NumServers)
	case p.Budget <= 0:
		return fmt.Errorf("heb: budget %v must be positive", p.Budget)
	case p.StorageWh <= 0:
		return fmt.Errorf("heb: storage capacity %g Wh must be positive", p.StorageWh)
	case p.SCRatio < 0 || p.SCRatio >= 1:
		return fmt.Errorf("heb: SC ratio %g outside [0,1)", p.SCRatio)
	case p.BatteryStrings <= 0 || p.SCBanks <= 0:
		return fmt.Errorf("heb: pool member counts must be positive")
	case p.Step <= 0 || p.Slot < p.Step:
		return fmt.Errorf("heb: bad step %v / slot %v", p.Step, p.Slot)
	case p.LimitedPATBins <= 0:
		return fmt.Errorf("heb: limited PAT bins %d must be positive", p.LimitedPATBins)
	case p.ProfileNoise < 0 || p.ProfileNoise > 1:
		return fmt.Errorf("heb: profile noise %g outside [0,1]", p.ProfileNoise)
	case p.InitialSoC < 0 || p.InitialSoC > 1:
		return fmt.Errorf("heb: initial SoC %g outside [0,1]", p.InitialSoC)
	case p.SensorNoise < 0 || p.SensorNoise >= 1:
		return fmt.Errorf("heb: sensor noise %g outside [0,1)", p.SensorNoise)
	case p.BatteryPreAge < 0 || p.BatteryPreAge > 1:
		return fmt.Errorf("heb: battery pre-age %g outside [0,1]", p.BatteryPreAge)
	case p != p:
		// Only a NaN field makes p unequal to itself; it passes every
		// ordered check here and in the nested configs' Validate.
		return fmt.Errorf("heb: prototype has a NaN field")
	}
	if err := p.Server.Validate(); err != nil {
		return err
	}
	if err := p.Battery.Validate(); err != nil {
		return err
	}
	if err := p.Supercap.Validate(); err != nil {
		return err
	}
	return p.PATConfig.Validate()
}

// Servers builds the prototype's server set.
func (p Prototype) Servers() []*power.Server {
	servers := make([]*power.Server, p.NumServers)
	for i := range servers {
		servers[i] = power.MustNewServer(i, p.Server)
	}
	return servers
}

// BuildBatteryPool builds a battery pool with the given total usable
// energy, distributed over the configured number of parallel strings.
func (p Prototype) BuildBatteryPool(totalWh float64) (*esd.Pool, error) {
	if totalWh <= 0 {
		return nil, fmt.Errorf("heb: battery pool capacity %g Wh must be positive", totalWh)
	}
	cfg := p.Battery
	perString := totalWh / float64(p.BatteryStrings)
	// Usable Wh = DoD × Ah × V  ⇒  Ah = Wh / (DoD × V).
	refAh := cfg.CapacityAh
	cfg.CapacityAh = perString / (cfg.DoD * float64(cfg.NominalVoltage))
	// Internal resistance scales inversely with cell capacity: a 1 Ah
	// block of the same chemistry has ~8x the resistance of an 8 Ah one.
	if refAh > 0 && cfg.CapacityAh > 0 {
		scale := refAh / cfg.CapacityAh
		cfg.InternalOhm *= scale
		cfg.SagOhm *= scale
	}
	b, err := esd.NewBattery(cfg)
	if err != nil {
		return nil, err
	}
	if p.BatteryPreAge > 0 {
		b.PreAge(p.BatteryPreAge)
	}
	return esd.NewUniformPool("battery", p.BatteryStrings, b)
}

// BuildSupercapPool builds an SC pool with the given total usable energy,
// distributed over the configured number of parallel banks. A zero
// capacity returns (nil, nil): battery-only systems simply have no pool.
func (p Prototype) BuildSupercapPool(totalWh float64) (*esd.Pool, error) {
	if totalWh == 0 {
		return nil, nil
	}
	if totalWh < 0 {
		return nil, fmt.Errorf("heb: SC pool capacity %g Wh must be positive", totalWh)
	}
	cfg := p.Supercap
	perBank := totalWh / float64(p.SCBanks)
	vmax, vmin := float64(cfg.VMax), float64(cfg.VMin)
	// Usable J = ½C(Vmax²−Vmin²)·DoD ⇒ C = 2·J / ((Vmax²−Vmin²)·DoD).
	refC := cfg.Capacitance
	cfg.Capacitance = 2 * perBank * 3600 / ((vmax*vmax - vmin*vmin) * cfg.DoD)
	// ESR scales inversely with capacitance for the same cell family.
	if refC > 0 && cfg.Capacitance > 0 {
		cfg.ESR *= refC / cfg.Capacitance
	}
	s, err := esd.NewSupercap(cfg)
	if err != nil {
		return nil, err
	}
	return esd.NewUniformPool("supercap", p.SCBanks, s)
}

// BuildPools builds the battery and SC pools for the scheme: hybrid
// schemes split StorageWh by SCRatio; BaOnly puts everything in batteries
// (the equal-total-capacity comparison of Section 7).
func (p Prototype) BuildPools(id SchemeID) (battery, supercap *esd.Pool, err error) {
	scShare := p.SCRatio
	if !id.Hybrid() {
		scShare = 0
	}
	battery, err = p.BuildBatteryPool(p.StorageWh * (1 - scShare))
	if err != nil {
		return nil, nil, err
	}
	supercap, err = p.BuildSupercapPool(p.StorageWh * scShare)
	if err != nil {
		return nil, nil, err
	}
	return battery, supercap, nil
}

// BuildScheme constructs the scheme and its matching predictors: HEB-F
// uses the naive last-slot predictor (that is its defining limitation);
// everything else uses Holt-Winters. HEB-S gets a coarse noisy profiled
// table; HEB-D a fine noisy table it will optimize online.
func (p Prototype) BuildScheme(id SchemeID, scCap, baCap units.Energy) (core.Scheme, forecast.Predictor, forecast.Predictor, error) {
	hw := func() forecast.Predictor {
		// Seasonless Holt smoothing: the evaluation runs span hours,
		// not the multiple days a daily season needs to warm up.
		cfg := forecast.DefaultHoltWintersConfig()
		cfg.SeasonLength = 0
		return forecast.MustNewHoltWinters(cfg)
	}
	maxPM := p.maxPM()
	switch id {
	case BaOnly:
		return core.NewBaOnly(), hw(), hw(), nil
	case BaFirst:
		return core.NewBaFirst(), hw(), hw(), nil
	case SCFirst:
		return core.NewSCFirst(), hw(), hw(), nil
	case HEBF:
		return core.NewHEBF(), forecast.NewNaive(), forecast.NewNaive(), nil
	case HEBS:
		cfg := p.PATConfig
		cfg.LevelBins = p.LimitedPATBins
		table, err := pat.New(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		core.SeedPAT(table, scCap, baCap, maxPM, core.DefaultBatteryDerate, p.ProfileNoise)
		return core.NewHEBS(table), hw(), hw(), nil
	case HEBD:
		table, err := pat.New(p.PATConfig)
		if err != nil {
			return nil, nil, nil, err
		}
		core.SeedPAT(table, scCap, baCap, maxPM, core.DefaultBatteryDerate, p.ProfileNoise)
		return core.NewHEBD(table), hw(), hw(), nil
	default:
		return nil, nil, nil, fmt.Errorf("heb: unknown scheme %d", int(id))
	}
}

// maxPM is the largest power mismatch the PAT profiles: the cluster
// peak above the provisioned budget.
func (p Prototype) maxPM() units.Power {
	pm := units.Power(float64(p.NumServers)*float64(p.Server.PeakPower)) - p.Budget
	if pm < 0 {
		pm = 0
	}
	return pm
}

// RunOptions adjust a single scheme run.
type RunOptions struct {
	// Duration overrides the workload trace duration.
	Duration time.Duration
	// Feed overrides the default budgeted utility feed (e.g. a solar
	// trace feed); Renewable marks it as intermittent generation.
	Feed      power.Feed
	Renewable bool
	// Budget overrides the prototype budget for this run.
	Budget units.Power
	// Observer receives a per-tick snapshot (telemetry hook).
	Observer func(sim.StepInfo)
	// PeakPredictor and ValleyPredictor override the scheme's default
	// predictors (for ablations, e.g. a forecast.Oracle).
	PeakPredictor, ValleyPredictor forecast.Predictor
	// Table overrides the PAT for HEB-S / HEB-D runs — e.g. a table
	// learned by a previous run and persisted with pat.Save. Ignored by
	// schemes that have no table.
	Table *pat.Table
	// TableSink, when set, receives the scheme's PAT after the run
	// (HEB-S / HEB-D only), so callers can persist what was learned.
	TableSink func(*pat.Table)
	// Events receives the engine's discrete events (relay switches,
	// sheds/restores, pool handoffs, mode changes, mismatch windows, PAT
	// traffic) for this run. Composes with the prototype's Capture.
	Events obs.EventSink
	// DecisionTrace receives one hControl decision record per control
	// slot, with Seconds stamped from the slot ordinal and the
	// prototype's slot length. Composes with the prototype's Capture.
	DecisionTrace func(obs.DecisionRecord)

	// CheckpointSink, when set together with the prototype's
	// CheckpointEvery, receives each hash-chained checkpoint record as it
	// is taken — the write-through hook hebsim uses to persist
	// checkpoints.jsonl incrementally so a killed run leaves a usable
	// chain behind. Records arrive with Run unset (the key is stamped at
	// capture time); the hash excludes Run, so the chain stays valid.
	CheckpointSink func(obs.CheckpointRecord)
	// ResumeCheckpoints, when non-empty, resumes the run that recorded
	// this chain. The simulator is deterministic given its configuration
	// and seed, so a resume re-runs from step 0 with the caller's hooks
	// and checks the chain on the way: each record the run emits at an
	// index the chain already holds must match the carried one on slot,
	// step and hash. A matched record is already on disk, so it is not
	// sent to CheckpointSink again; the Capture and the alert engine still
	// see it, so every artifact comes out as in the uninterrupted run.
	// Records past the chain's end are emitted as usual. The first
	// mismatch (a changed seed, budget, workload or cadence) stops the run
	// and Run returns an error naming that slot, as it does when a run
	// without MaxSteps ends short of the chain. Resume composes with every
	// hook; CheckpointEvery must be the cadence that recorded the chain.
	ResumeCheckpoints []obs.CheckpointRecord
	// MaxSteps, when positive, stops the engine after the given number of
	// executed steps without end-of-run bookkeeping — the substrate of
	// windowed replay (hebsim -replay) and of kill-and-resume testing.
	MaxSteps int
}

// Run executes one scheme on one workload trace and returns the
// simulation result. The workload width must match the prototype's server
// count.
//
// While a prof.Collector window is open (hebsim -profile) the whole run
// executes under pprof labels {scheme, workload, seed, phase}, so CPU
// samples attribute to the sweep cell and its lifecycle phase. The
// disabled path costs one atomic load.
func (p Prototype) Run(id SchemeID, workload Workload, opts RunOptions) (sim.Result, error) {
	return p.RunWith(nil, 0, id, workload, opts)
}

// RunWith is Run with a per-worker run-state cache: when cache is
// non-nil and the options inject no foreign components (see
// RunOptions.poolable), the run reuses the worker's previously built
// engine, device pools, PAT table, controller and servers for the same
// structural configuration, resetting them instead of reallocating.
// Results and every observability artifact are bit-for-bit identical to
// Run's. worker must be the runner.MapWorkers worker index the call
// executes on — jobs sharing a worker index never run concurrently, so
// the cache slot needs no locking. A nil cache is exactly Run.
func (p Prototype) RunWith(cache *RunCache, worker int, id SchemeID, workload Workload, opts RunOptions) (sim.Result, error) {
	if !prof.Active() {
		return p.run(id, workload, opts, nil, cache, worker)
	}
	var res sim.Result
	var err error
	prof.DoCell(id.String(), workload.Name(), p.Seed, func(ctx context.Context) {
		res, err = p.run(id, workload, opts, ctx, cache, worker)
	})
	return res, err
}

// run is Run's body; profCtx is the cell-labeled context (nil when
// profiling is off) used to switch the phase label at lifecycle
// boundaries.
func (p Prototype) run(id SchemeID, workload Workload, opts RunOptions, profCtx context.Context, cache *RunCache, worker int) (sim.Result, error) {
	if err := p.Validate(); err != nil {
		return sim.Result{}, err
	}
	budget := p.Budget
	if opts.Budget > 0 {
		budget = opts.Budget
	}
	// Run-state pooling: a cached runState for this structural
	// configuration is reset instead of built, and a built one is parked
	// for the worker's next cell.
	var st *runState
	var stateKey poolKey
	pooling := cache != nil && opts.poolable()
	if pooling {
		stateKey = p.poolKey(id, budget)
		if st = cache.lookup(worker, stateKey); st != nil {
			st.reset(p)
		}
	}
	if st == nil {
		var err error
		if st, err = p.newRunState(id, budget, pooling); err != nil {
			return sim.Result{}, err
		}
		if pooling {
			cache.store(worker, stateKey, st)
		}
	}
	scheme, peakPred, valleyPred := st.scheme, st.peakPred, st.valleyPred
	if opts.PeakPredictor != nil {
		peakPred = opts.PeakPredictor
	}
	if opts.ValleyPredictor != nil {
		valleyPred = opts.ValleyPredictor
	}
	if opts.Table != nil {
		switch id {
		case HEBS:
			scheme = core.NewHEBS(opts.Table)
		case HEBD:
			scheme = core.NewHEBD(opts.Table)
		}
	}
	// Observability plumbing: the caller's sinks compose with the
	// prototype's capture; everything stays nil when both are off so the
	// engine keeps its allocation-free fast path.
	var capDecisions *obs.DecisionLog
	if p.Capture != nil {
		capDecisions = obs.NewDecisionLog()
	}
	var traceFn func(obs.DecisionRecord)
	if opts.DecisionTrace != nil || capDecisions != nil {
		slotSecs := p.Slot.Seconds()
		userTrace, capTrace := opts.DecisionTrace, capDecisions
		traceFn = func(rec obs.DecisionRecord) {
			rec.Seconds = float64(rec.Slot-1) * slotSecs
			if capTrace != nil {
				capTrace.Append(rec)
			}
			if userTrace != nil {
				userTrace(rec)
			}
		}
	}
	var probes *obs.ProbeRecorder
	if p.ProbeEvery > 0 {
		probes = obs.NewProbeRecorder(p.ProbeRing)
	}
	auditor := obs.NewAuditor(p.Audit)
	alerter := alerts.NewEngine(p.Alert, p.AlertRules)
	checker := sim.NewChecker(auditor, alerter, probes, p.ProbeEvery)

	carried := opts.ResumeCheckpoints
	if len(carried) > 0 {
		if p.CheckpointEvery <= 0 {
			return sim.Result{}, fmt.Errorf("heb: resume needs CheckpointEvery, the cadence that recorded the chain")
		}
		if err := obs.ValidateCheckpoints(carried); err != nil {
			return sim.Result{}, fmt.Errorf("heb: resume chain: %w", err)
		}
	}
	var ckptLog *obs.CheckpointLog
	var checkpointFn func(slot, step int, now time.Duration, state []byte) bool
	// resume is built only on the checkpointing branch, so a run without
	// checkpoints does not heap-allocate the closure's state.
	var resume *resumeCheck
	if p.CheckpointEvery > 0 && (p.Capture != nil || opts.CheckpointSink != nil || len(carried) > 0) {
		ckptLog, resume = obs.NewCheckpointLog(), &resumeCheck{}
		sink := opts.CheckpointSink
		progress := p.Progress
		checkpointFn = func(slot, step int, now time.Duration, state []byte) bool {
			rec := ckptLog.Append(slot, step, now.Seconds(), state)
			if alerter != nil {
				alerter.ObserveCheckpoint(rec.Seconds, rec.Prev, rec.Hash)
			}
			if resume.checked < len(carried) {
				// The carried record is already on disk: check it, do not
				// sink it again.
				c := carried[resume.checked]
				resume.checked++
				if rec.Slot != c.Slot || rec.Step != c.Step || rec.Hash != c.Hash {
					resume.err = fmt.Errorf("heb: resume chain diverges at slot %d: the run recorded slot %d step %d hash %.12s, the chain holds slot %d step %d hash %.12s",
						min(rec.Slot, c.Slot), rec.Slot, rec.Step, rec.Hash, c.Slot, c.Step, c.Hash)
					return false
				}
				return true
			}
			if sink != nil {
				sink(rec)
			}
			if progress != nil {
				progress.AddCheckpoints(1)
			}
			return true
		}
	}

	ctrlCfg := core.Config{
		SmallPeakWatts:  p.SmallPeakWatts,
		Budget:          budget,
		NumServers:      p.NumServers,
		PeakPredictor:   peakPred,
		ValleyPredictor: valleyPred,
		SensorNoise:     p.SensorNoise,
		NoiseSeed:       p.Seed,
		Trace:           traceFn,
	}
	ctrl := &st.ctrl
	if err := ctrl.Reset(ctrlCfg, scheme); err != nil {
		return sim.Result{}, err
	}
	feed := opts.Feed
	if feed == nil {
		feed = st.feed
	}

	tr, err := workload.Trace(p)
	if err != nil {
		return sim.Result{}, err
	}

	// The run key depends only on configuration (the engine resolves a
	// zero duration to the trace length, mirrored here), so it is known
	// before the run. It is formatted only for a reader: the tracer track,
	// the reports, the capture artifact and a strict abort's error.
	runDuration := opts.Duration
	if runDuration == 0 {
		runDuration = tr.Duration()
	}
	var key string
	if p.Capture != nil || p.Tracer != nil || p.Audits != nil || p.Alerts != nil {
		key = p.runKey(id, workload, runDuration, opts)
	}
	var capLog *obs.Log
	events := opts.Events
	if p.Capture != nil {
		capLog = obs.NewLog(obs.EventCapFor(runDuration))
		events = obs.MultiSink(opts.Events, capLog)
	}
	var span *obs.Track
	if p.Tracer != nil {
		group := p.TraceCell
		if group == "" {
			group = "run"
		}
		span = p.Tracer.NewTrack(group, key)
	}

	charge := sim.ChargeSupercapFirst
	switch id {
	case BaOnly:
		charge = sim.ChargeBatteryOnly
	case BaFirst:
		charge = sim.ChargeBatteryFirst
	}
	engCfg := sim.Config{
		Step:            p.Step,
		Slot:            p.Slot,
		Duration:        opts.Duration,
		Servers:         st.servers,
		Workload:        tr,
		Battery:         st.battery,
		Supercap:        st.supercap,
		Feed:            feed,
		Renewable:       opts.Renewable,
		Controller:      ctrl,
		Topology:        p.Topology,
		ChargePriority:  charge,
		Observer:        opts.Observer,
		Events:          events,
		Invariants:      checker,
		MaxSteps:        opts.MaxSteps,
		CheckpointEvery: p.CheckpointEvery,
		Checkpoints:     checkpointFn,
		Prof:            profCtx,
	}
	eng := &st.eng
	if err := eng.Reset(engCfg); err != nil {
		return sim.Result{}, err
	}
	prof.SetPhase(profCtx, prof.PhaseSteps)
	span.Begin("run", "engine")
	res := eng.Run()
	span.End()
	if resume != nil && resume.err == nil && resume.checked < len(carried) && opts.MaxSteps == 0 && checker.Err() == nil {
		resume.err = fmt.Errorf("heb: resume chain runs past the run's end: %d records from slot %d on were not recorded",
			len(carried)-resume.checked, carried[resume.checked].Slot)
	}
	if resume != nil && resume.err != nil {
		return res, resume.err
	}
	prof.SetPhase(profCtx, prof.PhaseFinish)
	// A trailing slot the run ended inside still deserves its record, so
	// the decision count always equals SlotCount.
	ctrl.FlushTrace()
	if p.Progress != nil {
		p.Progress.AddUnits(int64(res.Steps))
	}
	if opts.TableSink != nil {
		if table, ok := core.Table(scheme); ok {
			opts.TableSink(table)
		}
	}
	var audit *obs.AuditReport
	if auditor != nil {
		r := auditor.Report().WithRun(key)
		p.Audits.Add(key, r)
		audit = &r
	}
	var alertReport *alerts.Report
	if alerter != nil {
		r := alerter.Report().WithRun(key)
		p.Alerts.Add(key, r)
		alertReport = &r
	}
	if p.Capture != nil {
		artifact := obs.RunArtifact{
			Key:           key,
			Events:        capLog.Events(),
			EventsDropped: capLog.Dropped(),
			Decisions:     capDecisions.Records(),
			Steps:         int64(res.Steps),
			MismatchSteps: int64(res.MismatchSteps),
			Slots:         int64(res.SlotCount),
			RelaySwitches: map[string]int64{},
			Audit:         audit,
			AlertEvents:   alerter.Events(),
			Alerts:        alertReport,
			Metrics: map[string]float64{
				"energy_efficiency":       res.EnergyEfficiency,
				"downtime_server_seconds": res.DowntimeServerSeconds,
				"downtime_fraction":       res.DowntimeFraction,
				"battery_lifetime_years":  res.BatteryLifetimeYears,
				"utility_peak_w":          float64(res.UtilityPeak),
				"reu":                     res.REU,
			},
		}
		if probes != nil {
			artifact.Probes = probes.Samples()
			artifact.ProbesDropped = probes.Dropped()
		}
		if ckptLog != nil {
			artifact.Checkpoints = ckptLog.Records()
		}
		for src, n := range res.RelaySwitches {
			if n > 0 {
				artifact.RelaySwitches[power.Source(src).String()] = n
			}
		}
		if table, ok := core.Table(scheme); ok {
			lookups, misses := table.Stats()
			artifact.PATLookups = int64(lookups)
			artifact.PATMisses = int64(misses)
		}
		p.Capture.Contribute(artifact)
	}
	if err := checker.Err(); err != nil {
		if key == "" {
			key = p.runKey(id, workload, runDuration, opts)
		}
		return res, fmt.Errorf("heb: %s: %w", key, err)
	}
	return res, nil
}

// resumeCheck counts the carried records a resumed run has regenerated
// and keeps the first it could not; only the engine goroutine touches it.
type resumeCheck struct {
	checked int
	err     error
}

// withoutWiring returns p with its per-run wiring cleared, for runKey
// and poolKey. The observability pointers would key runs by address,
// making keys depend on scheduling, and the trace group is a label;
// none of them influences results.
func (p Prototype) withoutWiring() Prototype {
	p.Capture = nil
	p.Progress = nil
	p.Audits = nil
	p.Alerts = nil
	p.Tracer = nil
	p.TraceCell = ""
	return p
}

// runKey fingerprints one run's configuration for capture artifacts. The
// readable prefix carries the headline knobs; the trailing cfg= hash
// covers every remaining prototype field (battery chemistry, PAT tuning,
// thresholds, ...) so two runs share a key only when their configuration
// is the same experiment cell, making multi-run artifact files
// independent of worker scheduling.
func (p Prototype) runKey(id SchemeID, workload Workload, duration time.Duration, opts RunOptions) string {
	budget := p.Budget
	if opts.Budget > 0 {
		budget = opts.Budget
	}
	feed := "utility"
	if opts.Feed != nil {
		feed = fmt.Sprintf("%T", opts.Feed)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p.withoutWiring())
	fmt.Fprintf(h, "|%T|%T|table=%v", opts.PeakPredictor, opts.ValleyPredictor, opts.Table != nil)
	return fmt.Sprintf("%s|%s|%s|seed=%d|n=%d|budget=%g|storage=%g|scratio=%g|topo=%d|feed=%s|renew=%v|noise=%g|preage=%g|cfg=%016x",
		id, workload.Name(), duration, p.Seed, p.NumServers, float64(budget),
		p.StorageWh, p.SCRatio, int(p.Topology), feed, opts.Renewable,
		p.SensorNoise, p.BatteryPreAge, h.Sum64())
}

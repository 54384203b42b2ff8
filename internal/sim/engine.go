// Package sim is the discrete-time simulation engine that stands in for
// the paper's hardware prototype (Figure 11): it steps servers, the relay
// fabric, the energy buffer pools and a power feed at one-second
// resolution, runs the hControl controller at ten-minute slots, and
// produces the metrics the evaluation reports — energy efficiency, server
// downtime, battery lifetime and renewable energy utilization.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/prof"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/trace"
	"heb/internal/units"
)

// ChargePriority selects which pool absorbs surplus power first.
type ChargePriority int

const (
	// ChargeSupercapFirst fills SCs first (HEB and SCFirst behaviour:
	// SCs can absorb unlimited current, so they catch deep valleys).
	ChargeSupercapFirst ChargePriority = iota
	// ChargeBatteryFirst fills batteries first (BaFirst behaviour).
	ChargeBatteryFirst
	// ChargeBatteryOnly has no SC pool to fill (BaOnly behaviour).
	ChargeBatteryOnly
)

// String names the priority.
func (c ChargePriority) String() string {
	switch c {
	case ChargeSupercapFirst:
		return "supercap-first"
	case ChargeBatteryFirst:
		return "battery-first"
	case ChargeBatteryOnly:
		return "battery-only"
	default:
		return fmt.Sprintf("ChargePriority(%d)", int(c))
	}
}

// Config assembles one simulation run.
type Config struct {
	// Step is the engine resolution (prototype IPDU reports every
	// second; default 1s).
	Step time.Duration
	// Slot is the control interval (paper default 10 minutes).
	Slot time.Duration
	// Duration is the simulated time span; zero defaults to the
	// workload trace duration.
	Duration time.Duration

	// Servers are the compute nodes. During Run they belong to the
	// engine: it reuses each server's demand until it changes that
	// server's utilization, frequency or power state itself, so nothing
	// else may call a Server mutator until Run returns.
	Servers []*power.Server
	// Workload drives per-server utilization; its width must match the
	// server count. A row At returns again (the same slice) is held:
	// the engine reuses the demand it computed from it, so rows must not
	// be edited during Run.
	Workload *trace.Trace

	// Battery is the battery pool; required. A run with no storage at
	// all passes a pool of one esd.Null.
	Battery *esd.Pool
	// Supercap is the SC pool; nil for battery-only systems.
	Supercap *esd.Pool

	// Feed supplies power: a budgeted utility feed or a solar trace.
	Feed power.Feed
	// Renewable marks the feed as intermittent generation, enabling
	// REU accounting and surplus-spill tracking.
	Renewable bool

	// Controller is the hControl instance (scheme + predictors).
	Controller *core.Controller

	// Topology selects the deployment architecture; it determines the
	// conversion stage on the storage discharge path (Section 4.2).
	Topology power.Topology

	// ChargePriority orders surplus absorption.
	ChargePriority ChargePriority

	// ActivityThreshold is the utilization above which a server counts
	// as recently used for LRU shedding.
	ActivityThreshold float64

	// Observer, when set, receives a StepInfo after every engine tick —
	// the hook the telemetry monitor (prototype item 5, "system
	// real-time running state monitoring") attaches to, and the way to
	// collect the per-tick demand series (StepInfo.Demand): the engine
	// keeps only each slot's peak and valley (Result.SlotPeaks and
	// SlotValleys). The engine calls it synchronously from whichever
	// goroutine is executing Run, never from any other goroutine, so an
	// observer used by a single run needs no locking; an observer shared
	// between concurrent runs (e.g. cells of a parallel sweep) must
	// synchronize itself. An observer may fail or repair relays through
	// Engine.Fabric, but must not call Server mutators or edit trace rows
	// (see Servers and Workload).
	Observer func(StepInfo)

	// Events, when set, receives the engine's discrete events: run
	// start/end, every effective relay movement (classified as shed,
	// restore, battery<->SC handoff or plain switch), charge-mode changes,
	// mismatch window begin/end, and PAT hit/miss per slot plan. The sink
	// is called synchronously from the engine goroutine. A nil sink is the
	// fast path: no event values are built at all, so the hot loop stays
	// allocation-free (guarded by BenchmarkEngineStep's exact allocs/op).
	Events obs.EventSink

	// DVFSCapping enables the performance-scaling baseline the paper
	// contrasts energy buffering against: on a mismatch the whole
	// cluster is stepped down to the low DVFS point before any buffer
	// dispatch, and stepped back up once demand fits again. The forced
	// low-frequency time is reported as DegradedServerSeconds — the
	// performance penalty energy buffers exist to avoid.
	DVFSCapping bool

	// Invariants, when set, runs the invariant checker (see Checker):
	// the energy auditor, the alert rules and the device probes, fed from
	// one pass per step. A checker in strict mode ends the run at the
	// first failed strict check. Nil is the fast path: no checks run, no
	// device is snapshotted and the hot loop stays allocation-free.
	Invariants *Checker

	// Checkpoints, when set together with a positive CheckpointEvery,
	// receives the engine's serialized state (see EngineState) at
	// checkpointed slot boundaries — after the boundary's finish/plan,
	// before the first step of the new slot. Returning false stops the
	// run where it stands, as a MaxSteps stop does. state is the
	// engine's reused buffer: a sink that keeps it must copy it. A nil
	// sink is the fast path: no state is assembled at all, so the hot
	// loop stays allocation-free.
	Checkpoints func(slot, step int, now time.Duration, state []byte) bool
	// CheckpointEvery is the checkpoint decimation in control slots
	// (1 = every slot boundary). Zero disables checkpointing even when
	// a sink is installed.
	CheckpointEvery int

	// MaxSteps, when positive, stops the run after executing steps
	// [0, MaxSteps) without the usual end-of-run bookkeeping (no trailing
	// slot finish, no run_end event). It is the substrate of windowed
	// replay and of the kill half of kill-and-resume tests.
	MaxSteps int

	// Prof, when set, is the cell-labeled pprof context (see
	// internal/obs/prof): at control-slot boundaries the engine flips the
	// goroutine's phase label to "plan" around finishSlot/planSlot and
	// back to "steps" after, so CPU samples separate the control path
	// from the hot loop. Nil (profiling off) is the fast path: the label
	// switch is never evaluated inside the per-step loop, only at slot
	// boundaries, and a nil context returns immediately.
	Prof context.Context
}

// StepInfo is the per-tick state snapshot passed to Config.Observer.
type StepInfo struct {
	// Now is the simulation time of the completed tick.
	Now time.Duration
	// Demand and Supply are total server draw and feed availability.
	Demand, Supply units.Power
	// BatterySoC and SupercapSoC are pool states of charge (Supercap
	// is zero for battery-only systems).
	BatterySoC, SupercapSoC float64
	// OnUtility, OnBattery, OnSupercap and Off count servers per relay
	// position.
	OnUtility, OnBattery, OnSupercap, Off int
	// Mismatch reports whether demand exceeded supply this tick.
	Mismatch bool
	// RelaySwitches is the cumulative effective relay movement count by
	// destination position (see power.Fabric.SwitchCounts).
	RelaySwitches [power.NumSources]int64
}

// Validate reports the first invalid field and applies no defaults.
func (c Config) Validate() error {
	switch {
	case c.Step <= 0:
		return fmt.Errorf("sim: step %v must be positive", c.Step)
	case c.Slot < c.Step:
		return fmt.Errorf("sim: slot %v must be >= step %v", c.Slot, c.Step)
	case c.Duration < 0:
		return fmt.Errorf("sim: duration %v must not be negative", c.Duration)
	case len(c.Servers) == 0:
		return fmt.Errorf("sim: no servers")
	case c.Workload == nil:
		return fmt.Errorf("sim: no workload")
	case c.Workload.Servers() != len(c.Servers):
		return fmt.Errorf("sim: workload width %d != server count %d",
			c.Workload.Servers(), len(c.Servers))
	case c.Battery == nil:
		return fmt.Errorf("sim: no battery pool")
	case c.Feed == nil:
		return fmt.Errorf("sim: no power feed")
	case c.Controller == nil:
		return fmt.Errorf("sim: no controller")
	case c.ActivityThreshold < 0 || c.ActivityThreshold > 1:
		return fmt.Errorf("sim: activity threshold %g outside [0,1]", c.ActivityThreshold)
	}
	return nil
}

// withDefaults fills zero values with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Step == 0 {
		c.Step = time.Second
	}
	if c.Slot == 0 {
		c.Slot = 10 * time.Minute
	}
	if c.Duration == 0 && c.Workload != nil {
		c.Duration = c.Workload.Duration()
	}
	if c.ActivityThreshold == 0 {
		c.ActivityThreshold = 0.05
	}
	return c
}

// Engine executes one configured run.
type Engine struct {
	cfg    Config
	fabric *power.Fabric

	dischargeConv power.Converter
	utilityConv   power.Converter

	// Slot state.
	decision      core.Decision
	view          core.SlotView
	slotPeak      units.Power
	slotValley    units.Power
	slotHasSample bool

	// Event state: the current tick time (stamped before any relay can
	// move, so the fabric's switch listener timestamps correctly), the
	// open-mismatch flag for begin/end pairing, and the last dispatch mode
	// for change detection. Only maintained when cfg.Events is set.
	now        time.Duration
	inMismatch bool
	lastMode   core.Mode
	haveMode   bool

	// Restart hysteresis: servers shed recently stay off briefly so the
	// engine does not thrash between shedding and restarting.
	lastShed time.Duration
	hasShed  bool

	// DVFS capping state: the frequency each server ran at before the
	// governor forced it down, and the accumulated degraded time.
	cappedFrom   map[int]power.FreqLevel
	degradedSecs float64

	// Accounting.
	servedSC, servedBA   units.Energy // delivered to servers per pool
	renewGen, renewUsed  units.Energy
	renewStored          units.Energy
	renewSpilled         units.Energy
	utilityDrawn         units.Energy
	utilityPeak          units.Power
	initialStored        units.Energy
	demand               units.Power // the latest tick's total demand
	slotPeaks            []float64
	slotValleys          []float64
	shedEvents           int
	mismatchSteps, steps int

	// Reusable hot-loop scratch, all sized to the server count and keyed
	// by the server's fabric position: the mismatch path runs every tick
	// of a peak and must not allocate per tick.
	demandByIdx     []units.Power // per-tick demand snapshot (Fabric.SnapshotDemand)
	keepScratch     []bool        // selectOverload keep set
	overloadScratch []int         // selectOverload result positions

	// Held-row state (DESIGN §14, "Held rows"). snap counts demand
	// snapshots; every cache below is valid for one snap value only.
	// heldRow is the first element of the workload row the servers hold
	// (nil forces a fresh row), and heldGen and heldTotal the fabric
	// generation and powered total of the latest snapshot. sortedFrom is
	// the last overload set applyDecision sorted under sortedSnap and
	// sortedTo its sorted order. lastOverload is the last set
	// selectOverload computed, valid while its inputs still equal overKey.
	// perSource is the last per-source split of the snapshot, valid while
	// the snapshot and the relay movement counts still equal sourceKey.
	snap                 uint64
	heldRow              *float64
	heldGen              uint64
	heldTotal            units.Power
	sortedSnap           uint64
	sortedFrom, sortedTo []int
	lastOverload         []int
	overKey              overloadKey
	perSource            [power.NumSources]units.Power
	sourceKey            sourceKey

	// Running digests of the metric series (see EngineState): the demand
	// digest folds each tick's demand as it is observed, and only when the
	// run checkpoints; the slot digests are folded up to the last checkpoint.
	demandDigest, peaksDigest, valleysDigest pat.Digest
	// ckptBuf holds the last encoded checkpoint state; emitCheckpoint
	// reuses it.
	ckptBuf []byte
}

// overloadKey is what a selectOverload result depends on: the demand
// snapshot (a shed or a restart changes the power-state generation, so
// the shed set too), the LRU order and the supply, and, for the relays
// selectOverload would switch back to utility, every relay movement and
// fault since the tick that computed it ended. switches and faults are
// taken at that tick's end.
type overloadKey struct {
	snap, order, faults uint64
	supply              units.Power
	switches            [power.NumSources]int64
}

// sourceKey is what a Fabric.DemandPerSource split depends on: the demand
// snapshot and the relay assignment. Every effective relay move, a shed
// included, bumps a switch count, so equal counts mean an unchanged
// assignment. A reset engine's zero key never matches: the first snapshot
// makes snap at least 1.
type sourceKey struct {
	snap     uint64
	switches [power.NumSources]int64
}

// New builds an engine; defaults are applied before validation. It is
// Reset on a zero Engine.
func New(cfg Config) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// emitSwitch classifies an effective relay movement into the event
// taxonomy and forwards it to the sink. Installed only when events are on.
func (e *Engine) emitSwitch(id int, from, to power.Source) {
	ev := obs.Event{
		Seconds: e.now.Seconds(),
		Server:  id,
		From:    from.String(),
		To:      to.String(),
	}
	switch {
	case to == power.SourceOff:
		ev.Kind = obs.EventShed
	case from == power.SourceOff:
		ev.Kind = obs.EventRestore
	case (from == power.SourceBattery && to == power.SourceSupercap) ||
		(from == power.SourceSupercap && to == power.SourceBattery):
		ev.Kind = obs.EventHandoff
	default:
		ev.Kind = obs.EventRelaySwitch
	}
	e.cfg.Events.Emit(ev)
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Fabric exposes the relay fabric (for tests and telemetry).
func (e *Engine) Fabric() *power.Fabric { return e.fabric }

// sizeScratch allocates the per-position hot-loop scratch for n servers.
// The four position lists share one block, each capped at n so appends
// never run into the next.
func (e *Engine) sizeScratch(n int) {
	e.demandByIdx = make([]units.Power, n)
	e.keepScratch = make([]bool, n)
	ints := make([]int, 4*n)
	e.overloadScratch = ints[0:0:n]
	e.lastOverload = ints[n : n : 2*n]
	e.sortedFrom = ints[2*n : 2*n : 3*n]
	e.sortedTo = ints[3*n : 3*n : 4*n]
}

// sizeSeries returns s emptied with capacity for at least want,
// allocating only when the existing backing array is too small.
func sizeSeries(s []float64, want int) []float64 {
	if cap(s) >= want {
		return s[:0]
	}
	return make([]float64, 0, want)
}

// Reset binds the engine to a run configuration. Every field is rebuilt
// from cfg, so a reset engine's state equals a new one's; only
// allocations carry over: the relay fabric (reset, when the server set
// is unchanged), the hot-loop scratch, the slot-series backing arrays
// (emptied) and the DVFS capping map (cleared). Callers own
// resetting the injected components (servers, pools, controller); a
// utility feed holds only its budget, so it needs no reset.
// A reset engine produces bit-for-bit the same results as a new one for
// the same configuration.
func (e *Engine) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	fabric := e.fabric
	if slices.Equal(cfg.Servers, e.cfg.Servers) {
		fabric.Reset()
	} else {
		var err error
		if fabric, err = power.NewFabric(cfg.Servers); err != nil {
			return err
		}
	}
	var peak units.Power
	for _, s := range cfg.Servers {
		peak += s.PeakDemand()
	}
	clear(e.cappedFrom)
	*e = Engine{
		cfg:             cfg,
		fabric:          fabric,
		dischargeConv:   cfg.Topology.DischargeConverter(peak),
		utilityConv:     cfg.Topology.UtilityConverter(peak),
		cappedFrom:      e.cappedFrom,
		slotPeaks:       e.slotPeaks[:0],
		slotValleys:     e.slotValleys[:0],
		demandByIdx:     e.demandByIdx,
		keepScratch:     e.keepScratch,
		overloadScratch: e.overloadScratch[:0],
		sortedFrom:      e.sortedFrom[:0],
		sortedTo:        e.sortedTo[:0],
		lastOverload:    e.lastOverload[:0],
		ckptBuf:         e.ckptBuf[:0],
	}
	if n := len(cfg.Servers); len(e.demandByIdx) != n {
		e.sizeScratch(n)
	}
	var onSwitch func(id int, from, to power.Source)
	if cfg.Events != nil {
		onSwitch = e.emitSwitch
	}
	e.fabric.SetSwitchListener(onSwitch)
	return nil
}

// Run executes the full simulation and returns its metrics.
func (e *Engine) Run() Result {
	cfg := e.cfg
	steps := int(cfg.Duration / cfg.Step)
	slotSteps := int(cfg.Slot / cfg.Step)
	if slotSteps < 1 {
		slotSteps = 1
	}
	nSlots := steps/slotSteps + 1
	e.initialStored = e.storedTotal()
	// Size the slot series up front. A pooled engine arrives here with
	// full-capacity backing arrays from its previous run, so sizing
	// truncates instead of allocating.
	e.slotPeaks = sizeSeries(e.slotPeaks, nSlots)
	e.slotValleys = sizeSeries(e.slotValleys, nSlots)

	if cfg.Invariants != nil {
		cfg.Invariants.start(e)
	}

	if cfg.Events != nil {
		cfg.Events.Emit(obs.Event{
			Kind: obs.EventRunStart, Server: -1,
			Detail: cfg.Controller.Scheme().Name(),
		})
	}
	prof.SetPhase(cfg.Prof, prof.PhasePlan)
	e.planSlot(0)
	prof.SetPhase(cfg.Prof, prof.PhaseSteps)
	aborted := false
	stopped := false
	for i := 0; i < steps; i++ {
		now := time.Duration(i) * cfg.Step
		if i > 0 && i%slotSteps == 0 {
			prof.SetPhase(cfg.Prof, prof.PhasePlan)
			e.finishSlot()
			e.planSlot(now)
			if cfg.Checkpoints != nil && cfg.CheckpointEvery > 0 && (i/slotSteps)%cfg.CheckpointEvery == 0 &&
				!e.emitCheckpoint(i/slotSteps, i, now) {
				stopped = true
				break
			}
			prof.SetPhase(cfg.Prof, prof.PhaseSteps)
		}
		if cfg.MaxSteps > 0 && i >= cfg.MaxSteps {
			stopped = true
			break
		}
		e.step(now)
		if cfg.Invariants != nil {
			cfg.Invariants.step(e, i, now)
			if cfg.Invariants.abort() {
				aborted = true
				break
			}
		}
	}
	if !stopped {
		// A MaxSteps stop is mid-slot by construction: the trailing slot
		// stays open, as it was when the run was killed.
		e.finishSlot()
	}
	if cfg.Invariants != nil {
		cfg.Invariants.finish(e)
	}
	if cfg.Events != nil && !stopped {
		end := cfg.Duration.Seconds()
		if aborted {
			end = e.now.Seconds()
		}
		if e.inMismatch {
			e.inMismatch = false
			cfg.Events.Emit(obs.Event{Seconds: end, Kind: obs.EventMismatchEnd, Server: -1})
		}
		cfg.Events.Emit(obs.Event{Seconds: end, Kind: obs.EventRunEnd, Server: -1})
	}
	return e.result()
}

// planSlot queries the controller for the coming slot's decision.
func (e *Engine) planSlot(now time.Duration) {
	scAvail, scCap := e.supercapEnergy()
	baAvail := e.cfg.Battery.Stored()
	baCap := e.cfg.Battery.Capacity()
	e.view, e.decision = e.cfg.Controller.PlanSlot(scAvail, scCap, baAvail, baCap)
	e.slotPeak, e.slotValley, e.slotHasSample = 0, 0, false
	if e.cfg.Events != nil {
		e.emitPlanEvents(now)
	}
}

// emitPlanEvents reports the slot plan: dispatch-mode changes and the
// PAT traffic the plan cost.
func (e *Engine) emitPlanEvents(now time.Duration) {
	sec := now.Seconds()
	if !e.haveMode || e.decision.Mode != e.lastMode {
		ev := obs.Event{Seconds: sec, Kind: obs.EventChargeModeChange, Server: -1, To: e.decision.Mode.String()}
		if e.haveMode {
			ev.From = e.lastMode.String()
		}
		e.cfg.Events.Emit(ev)
		e.lastMode, e.haveMode = e.decision.Mode, true
	}
	if lookups, misses := e.cfg.Controller.LastPlanPAT(); lookups > 0 {
		kind := obs.EventPATHit
		if misses > 0 {
			kind = obs.EventPATMiss
		}
		e.cfg.Events.Emit(obs.Event{Seconds: sec, Kind: kind, Server: -1, Watts: float64(e.view.PredictedOver)})
	}
}

// finishSlot reports the slot's observations back to the controller.
func (e *Engine) finishSlot() {
	if !e.slotHasSample {
		return
	}
	scAvail, scCap := e.supercapEnergy()
	r := core.SlotResult{
		ActualPeak:   e.slotPeak,
		ActualValley: e.slotValley,
		ActualPM:     maxPower(0, e.slotPeak-e.slotValley),
		ActualOver:   maxPower(0, e.slotPeak-e.view.Budget),
		SCFracEnd:    fracEnergy(scAvail, scCap),
		BAFracEnd:    fracEnergy(e.cfg.Battery.Stored(), e.cfg.Battery.Capacity()),
		RatioUsed:    e.decision.Ratio,
	}
	e.cfg.Controller.FinishSlot(r)
	e.slotPeaks = append(e.slotPeaks, float64(e.slotPeak))
	e.slotValleys = append(e.slotValleys, float64(e.slotValley))
}

func (e *Engine) supercapEnergy() (avail, capacity units.Energy) {
	if e.cfg.Supercap == nil {
		return 0, 0
	}
	return e.cfg.Supercap.Stored(), e.cfg.Supercap.Capacity()
}

func (e *Engine) storedTotal() units.Energy {
	t := e.cfg.Battery.Stored()
	if e.cfg.Supercap != nil {
		t += e.cfg.Supercap.Stored()
	}
	return t
}

// step advances one engine tick.
func (e *Engine) step(now time.Duration) {
	cfg := &e.cfg
	dt := cfg.Step
	e.steps++
	e.now = now

	// Drive utilization from the workload and stamp LRU activity. A row
	// the servers already hold (the trace's zero-order hold over a coarser
	// sample step) leaves utilization and the active set as they are; the
	// fabric holds the row's active set from its first tick and records
	// each tick's stamp in O(1).
	row := cfg.Workload.At(now)
	fresh := &row[0] != e.heldRow
	if fresh {
		e.heldRow = &row[0]
		e.fabric.Hold()
		for i, s := range cfg.Servers {
			s.SetUtilization(row[i])
			if row[i] > cfg.ActivityThreshold {
				e.fabric.HoldAt(i)
			}
		}
	}
	e.fabric.StampHeld(now)

	supply := cfg.Feed.Available(now)
	e.maybeRestart(now, supply)

	// At most one demand evaluation per server per tick: utilization,
	// frequency and power state stay fixed for the rest of the tick unless
	// DVFS capping retunes frequencies (which re-snapshots) or a shed
	// powers a server off (which the per-source sums see through its
	// relay). A held row under an unchanged power-state generation reuses
	// the latest snapshot, which already reflects any retune.
	demand := e.heldTotal
	if fresh || e.fabric.Generation() != e.heldGen {
		demand = e.snapshotDemand()
	}
	e.observeDemand(demand)

	// Effective utility power deliverable to servers after the utility-
	// path conversion stage.
	effSupply := e.utilityConv.OutputFor(supply)

	if cfg.DVFSCapping {
		demand = e.applyCapping(demand, effSupply, dt)
	}

	mismatch := demand > effSupply
	if cfg.Events != nil && mismatch != e.inMismatch {
		if mismatch {
			cfg.Events.Emit(obs.Event{
				Seconds: now.Seconds(), Kind: obs.EventMismatchBegin, Server: -1,
				Watts: float64(demand - effSupply),
			})
		} else {
			cfg.Events.Emit(obs.Event{Seconds: now.Seconds(), Kind: obs.EventMismatchEnd, Server: -1})
		}
		e.inMismatch = mismatch
	}

	if !mismatch {
		e.stepSurplus(now, demand, supply, effSupply, dt)
	} else {
		e.stepMismatch(now, demand, supply, effSupply, dt)
	}
	if cfg.Observer != nil {
		cfg.Observer(e.snapshot(now, demand, supply, mismatch))
	}
}

// snapshotDemand re-evaluates every server's demand into demandByIdx and
// starts a new snapshot, which invalidates the held-row caches keyed by
// the previous one.
func (e *Engine) snapshotDemand() units.Power {
	e.heldTotal = e.fabric.SnapshotDemand(e.demandByIdx)
	e.heldGen = e.fabric.Generation()
	e.snap++
	return e.heldTotal
}

// snapshot assembles the observer's per-tick view.
func (e *Engine) snapshot(now time.Duration, demand, supply units.Power, mismatch bool) StepInfo {
	info := StepInfo{
		Now:           now,
		Demand:        demand,
		Supply:        supply,
		BatterySoC:    e.cfg.Battery.SoC(),
		Mismatch:      mismatch,
		RelaySwitches: e.fabric.SwitchCounts(),
	}
	if e.cfg.Supercap != nil {
		info.SupercapSoC = e.cfg.Supercap.SoC()
	}
	info.OnUtility = e.fabric.Count(power.SourceUtility)
	info.OnBattery = e.fabric.Count(power.SourceBattery)
	info.OnSupercap = e.fabric.Count(power.SourceSupercap)
	info.Off = e.fabric.Count(power.SourceOff)
	return info
}

// applyCapping runs the cluster DVFS governor: step every server down
// when demand exceeds supply, step back up when full-speed demand would
// fit with 5% margin. It returns the (possibly reduced) demand, taking
// a fresh demand snapshot when it retuned any server, and charges the
// degraded-time meter.
func (e *Engine) applyCapping(demand, effSupply units.Power, dt time.Duration) units.Power {
	if e.cappedFrom == nil {
		e.cappedFrom = make(map[int]power.FreqLevel)
	}
	retuned := false
	if demand > effSupply {
		for _, s := range e.cfg.Servers {
			if s.Freq() != power.FreqLow {
				e.cappedFrom[s.ID()] = s.Freq()
				s.SetFreq(power.FreqLow)
				retuned = true
			}
		}
	} else if len(e.cappedFrom) > 0 {
		// Would full speed fit again? Estimate analytically.
		var fullSpeed units.Power
		for i, s := range e.cfg.Servers {
			if e.fabric.SourceAt(i) == power.SourceOff {
				continue
			}
			cfg := s.Config()
			fullSpeed += cfg.IdlePower +
				units.Power(float64(cfg.PeakPower-cfg.IdlePower)*s.Utilization())
		}
		if fullSpeed <= effSupply*95/100 {
			for _, s := range e.cfg.Servers {
				if prev, ok := e.cappedFrom[s.ID()]; ok {
					s.SetFreq(prev)
					delete(e.cappedFrom, s.ID())
					retuned = true
				}
			}
		}
	}
	for i, s := range e.cfg.Servers {
		if _, ok := e.cappedFrom[s.ID()]; ok && e.fabric.SourceAt(i) != power.SourceOff {
			e.degradedSecs += dt.Seconds()
		}
	}
	if retuned {
		demand = e.snapshotDemand()
	}
	return demand
}

// stepSurplus handles demand below supply: everyone on utility, surplus
// charges the buffers.
func (e *Engine) stepSurplus(now time.Duration, demand, supply, effSupply units.Power, dt time.Duration) {
	cfg := &e.cfg
	if e.onPools() {
		for i := range cfg.Servers {
			if src := e.fabric.SourceAt(i); src == power.SourceBattery || src == power.SourceSupercap {
				_ = e.fabric.AssignAt(i, power.SourceUtility)
			}
		}
	}
	inputForDemand := e.utilityConv.InputFor(demand)
	e.utilityConv.AddLoss((inputForDemand - demand).Over(dt))

	surplus := supply - inputForDemand
	if surplus < 0 {
		surplus = 0
	}
	absorbed := e.charge(surplus, dt)

	drawn := inputForDemand
	if cfg.Renewable {
		e.renewGen += supply.Over(dt)
		e.renewUsed += inputForDemand.Over(dt)
		e.renewStored += absorbed.Over(dt)
		e.renewSpilled += (surplus - absorbed).Over(dt)
		drawn += absorbed
	} else {
		drawn += absorbed
	}
	e.utilityDrawn += drawn.Over(dt)
	if drawn > e.utilityPeak {
		e.utilityPeak = drawn
	}
	// With every powered server back on utility, utility demand is the
	// tick total; only a relay stuck on a pool needs the per-source split.
	perSource := [power.NumSources]units.Power{power.SourceUtility: demand}
	if e.onPools() {
		perSource = e.demandPerSource()
	}
	e.fabric.MeterStepPools(dt, perSource, 0, 0)
}

// onPools reports whether any server's relay sits on a storage pool.
func (e *Engine) onPools() bool {
	return e.fabric.Count(power.SourceBattery)+e.fabric.Count(power.SourceSupercap) > 0
}

// charge distributes surplus watts into the pools per the priority and
// returns the power actually absorbed.
func (e *Engine) charge(surplus units.Power, dt time.Duration) units.Power {
	if surplus <= 0 {
		e.cfg.Battery.Rest(dt)
		if e.cfg.Supercap != nil {
			e.cfg.Supercap.Rest(dt)
		}
		return 0
	}
	var absorbed units.Power
	chargeSC := func(p units.Power) units.Power {
		if e.cfg.Supercap == nil || p <= 0 {
			if e.cfg.Supercap != nil {
				e.cfg.Supercap.Rest(dt)
			}
			return 0
		}
		return e.cfg.Supercap.Charge(p, dt)
	}
	chargeBA := func(p units.Power) units.Power {
		if p <= 0 {
			e.cfg.Battery.Rest(dt)
			return 0
		}
		return e.cfg.Battery.Charge(p, dt)
	}
	switch e.cfg.ChargePriority {
	case ChargeBatteryFirst:
		got := chargeBA(surplus)
		absorbed = got + chargeSC(surplus-got)
	case ChargeBatteryOnly:
		absorbed = chargeBA(surplus)
		if e.cfg.Supercap != nil {
			e.cfg.Supercap.Rest(dt)
		}
	default: // ChargeSupercapFirst
		got := chargeSC(surplus)
		absorbed = got + chargeBA(surplus-got)
	}
	return absorbed
}

// stepMismatch handles demand above supply: move overloaded servers onto
// the buffers per the slot decision, discharge, fall back, shed.
func (e *Engine) stepMismatch(now time.Duration, demand, supply, effSupply units.Power, dt time.Duration) {
	cfg := &e.cfg
	e.mismatchSteps++

	// Select which servers stay on utility: fill the budget greedily in
	// LRU-most-recent order so hot servers keep grid power and the
	// overload set is stable.
	overload := e.selectOverload(effSupply)
	e.applyDecision(overload)

	perSource := e.demandPerSource()
	utilityLoad := perSource[power.SourceUtility]

	needBA := perSource[power.SourceBattery]
	needSC := perSource[power.SourceSupercap]

	servedBA, servedSC := e.discharge(needBA, needSC, dt)

	// Cross-pool takeover within the step: when one pool falls short,
	// the relays flip the starved servers to the other pool immediately
	// (mode permitting), so a depleting SC hands its load to batteries
	// mid-peak instead of shedding. The second Discharge call advances
	// the helper pool's internal clock a second time for this step — a
	// negligible distortion of well-recovery, paid only on takeover
	// steps.
	shortBA := needBA - servedBA
	shortSC := needSC - servedSC
	if shortSC > 0.5 && e.decision.Mode != core.ModeBatteryOnly {
		extra := e.cfg.Battery.Discharge(e.dischargeConv.InputFor(shortSC), dt)
		out := e.dischargeConv.OutputFor(extra)
		e.dischargeConv.AddLoss((extra - out).Over(dt))
		servedSC += out
		shortSC -= out
	}
	if shortBA > 0.5 && e.cfg.Supercap != nil {
		extra := e.cfg.Supercap.Discharge(e.dischargeConv.InputFor(shortBA), dt)
		out := e.dischargeConv.OutputFor(extra)
		e.dischargeConv.AddLoss((extra - out).Over(dt))
		servedBA += out
		shortBA -= out
	}
	// Shed servers whose demand nobody can carry: LRU first.
	if shortBA > 0.5 || shortSC > 0.5 {
		e.shed(shortBA, shortSC)
		e.lastShed = now
		e.hasShed = true
		// Shed servers draw nothing: meter the relays as they now stand.
		perSource = e.demandPerSource()
	}

	e.servedBA += servedBA.Over(dt)
	e.servedSC += servedSC.Over(dt)

	drawnInput := e.utilityConv.InputFor(utilityLoad)
	if drawnInput > supply {
		drawnInput = supply
	}
	e.utilityConv.AddLoss((drawnInput - utilityLoad).Over(dt))
	e.utilityDrawn += drawnInput.Over(dt)
	if drawnInput > e.utilityPeak {
		e.utilityPeak = drawnInput
	}
	if cfg.Renewable {
		e.renewGen += supply.Over(dt)
		e.renewUsed += drawnInput.Over(dt)
		e.renewSpilled += (supply - drawnInput).Over(dt)
	}

	e.fabric.MeterStepPools(dt, perSource, servedBA, servedSC)
	e.overKey.switches, e.overKey.faults = e.fabric.SwitchCounts(), e.fabric.FaultGeneration()
}

// demandPerSource returns Fabric.DemandPerSource over the demand snapshot.
// A held mismatch tick whose relays did not move reuses the previous
// split: the snapshot changes only with snap and the assignment only with
// a switch count, so the reused split equals a fresh sum bit for bit.
func (e *Engine) demandPerSource() [power.NumSources]units.Power {
	if key := (sourceKey{snap: e.snap, switches: e.fabric.SwitchCounts()}); key != e.sourceKey {
		e.perSource = e.fabric.DemandPerSource(e.demandByIdx)
		e.sourceKey = key
	}
	return e.perSource
}

// selectOverload returns the server positions that must leave utility
// power so the remainder fits under effSupply. Most-recently-used servers
// keep utility power; the overload set is returned in LRU order. When no
// input changed since the previous mismatch tick (overKey), that tick's
// set is copied: its kept servers are still on utility, so the walk would
// switch nothing and return the same set.
func (e *Engine) selectOverload(effSupply units.Power) []int {
	order := e.fabric.LRUPositions() // least-recent first
	key := overloadKey{
		snap: e.snap, order: e.fabric.OrderVersion(), faults: e.fabric.FaultGeneration(),
		supply: effSupply, switches: e.fabric.SwitchCounts(),
	}
	if key == e.overKey {
		e.overloadScratch = append(e.overloadScratch[:0], e.lastOverload...)
		return e.overloadScratch
	}
	e.overKey = key
	// Walk from most-recent (end) filling the budget. The keep set is a
	// reusable per-position bitmap, not a per-tick map.
	var keep units.Power
	kept := e.keepScratch
	clear(kept)
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		if e.fabric.SourceAt(i) == power.SourceOff {
			continue
		}
		if d := e.demandByIdx[i]; keep+d <= effSupply {
			keep += d
			kept[i] = true
		}
	}
	// Put the kept servers on utility and collect the rest (iterating the
	// LRU order keeps the relay switches in a deterministic sequence).
	overload := e.overloadScratch[:0]
	for _, i := range order {
		switch src := e.fabric.SourceAt(i); {
		case kept[i]:
			if src != power.SourceUtility {
				_ = e.fabric.AssignAt(i, power.SourceUtility)
			}
		case src != power.SourceOff:
			overload = append(overload, i)
		}
	}
	e.overloadScratch = overload
	e.lastOverload = append(e.lastOverload[:0], overload...)
	return overload
}

// applyDecision routes the overload set to the pools per the slot
// decision. Assignment is capability-aware: a pool is only asked to carry
// servers it can actually power right now, and the remainder takes over
// on the other pool through the relays — the paper's "whenever one energy
// storage device is depleted, the other will take over ... immediately
// via power switches", generalized to partial takeover. overload lists
// server positions and is sorted in place.
func (e *Engine) applyDecision(overload []int) {
	if len(overload) == 0 {
		return
	}
	// Deliverable power per pool, with a small margin for the gap
	// between the instantaneous estimate and a full step.
	capBA := e.cfg.Battery.MaxDischargePower() * 95 / 100
	var capSC units.Power
	if e.cfg.Supercap != nil {
		capSC = e.cfg.Supercap.MaxDischargePower() * 95 / 100
	}
	// Largest demands first, so big draws land where capacity exists. The
	// order is a function of the set and the demand snapshot alone, so the
	// previous mismatch tick's set under the same snapshot reuses its sort.
	if e.sortedSnap == e.snap && slices.Equal(overload, e.sortedFrom) {
		copy(overload, e.sortedTo)
	} else {
		e.sortedFrom = append(e.sortedFrom[:0], overload...)
		slices.SortFunc(overload, e.byDemandDesc)
		e.sortedTo = append(e.sortedTo[:0], overload...)
		e.sortedSnap = e.snap
	}
	assignUpTo := func(set []int, first, second power.Source, capFirst, capSecond units.Power) {
		for _, i := range set {
			d := e.demandByIdx[i]
			switch {
			case d <= capFirst:
				_ = e.fabric.AssignAt(i, first)
				capFirst -= d
			case d <= capSecond:
				_ = e.fabric.AssignAt(i, second)
				capSecond -= d
			default:
				// Neither pool can carry it: leave it on the first
				// choice; the shortfall/shed path decides its fate.
				_ = e.fabric.AssignAt(i, first)
				capFirst -= d
			}
		}
	}
	switch e.decision.Mode {
	case core.ModeBatteryOnly:
		// No SC pool to fall back to: everything goes to batteries.
		for _, i := range overload {
			_ = e.fabric.AssignAt(i, power.SourceBattery)
		}
	case core.ModeBatteryFirst:
		assignUpTo(overload, power.SourceBattery, power.SourceSupercap, capBA, capSC)
	case core.ModeSupercapFirst:
		assignUpTo(overload, power.SourceSupercap, power.SourceBattery, capSC, capBA)
	case core.ModeSplit:
		// R_λ of the servers to SC, the rest to batteries, then spill
		// whatever exceeds a pool's capability to the other pool.
		ratio := units.Clamp(e.decision.Ratio, 0, 1)
		nSC := int(float64(len(overload))*ratio + 0.5)
		scSet := overload[:nSC]
		baSet := overload[nSC:]
		assignUpTo(scSet, power.SourceSupercap, power.SourceBattery, capSC, capBA)
		// Track what the SC spill already consumed of the battery cap.
		var used units.Power
		for _, i := range scSet {
			if e.fabric.SourceAt(i) == power.SourceBattery {
				used += e.demandByIdx[i]
			}
		}
		remBA := capBA - used
		if remBA < 0 {
			remBA = 0
		}
		var usedSC units.Power
		for _, i := range scSet {
			if e.fabric.SourceAt(i) == power.SourceSupercap {
				usedSC += e.demandByIdx[i]
			}
		}
		remSC := capSC - usedSC
		if remSC < 0 {
			remSC = 0
		}
		assignUpTo(baSet, power.SourceBattery, power.SourceSupercap, remBA, remSC)
	}
}

// byDemandDesc orders server positions by descending snapshot demand,
// server id ascending on ties.
func (e *Engine) byDemandDesc(a, b int) int {
	switch da, db := e.demandByIdx[a], e.demandByIdx[b]; {
	case da > db:
		return -1
	case da < db:
		return 1
	}
	return cmp.Compare(e.cfg.Servers[a].ID(), e.cfg.Servers[b].ID())
}

// discharge asks the pools for the servers' demand through the topology's
// conversion stage and returns the power delivered to servers per pool.
func (e *Engine) discharge(needBA, needSC units.Power, dt time.Duration) (servedBA, servedSC units.Power) {
	conv := &e.dischargeConv
	askBA := conv.InputFor(needBA)
	gotBA := units.Power(0)
	if askBA > 0 {
		gotBA = e.cfg.Battery.Discharge(askBA, dt)
	} else {
		e.cfg.Battery.Rest(dt)
	}
	servedBA = conv.OutputFor(gotBA)
	conv.AddLoss((gotBA - servedBA).Over(dt))

	if e.cfg.Supercap != nil {
		askSC := conv.InputFor(needSC)
		gotSC := units.Power(0)
		if askSC > 0 {
			gotSC = e.cfg.Supercap.Discharge(askSC, dt)
		} else {
			e.cfg.Supercap.Rest(dt)
		}
		servedSC = conv.OutputFor(gotSC)
		conv.AddLoss((gotSC - servedSC).Over(dt))
	}
	return servedBA, servedSC
}

// shed powers off least-recently-used servers on the starved pools until
// the uncovered shortfall is gone.
func (e *Engine) shed(shortBA, shortSC units.Power) {
	for _, i := range e.fabric.LRUPositions() {
		if shortBA <= 0.5 && shortSC <= 0.5 {
			return
		}
		switch e.fabric.SourceAt(i) {
		case power.SourceBattery:
			if shortBA > 0.5 {
				_ = e.fabric.AssignAt(i, power.SourceOff)
				shortBA -= e.demandByIdx[i]
				e.shedEvents++
			}
		case power.SourceSupercap:
			if shortSC > 0.5 {
				_ = e.fabric.AssignAt(i, power.SourceOff)
				shortSC -= e.demandByIdx[i]
				e.shedEvents++
			}
		}
	}
}

// restartHoldoff is how long a shed server stays down before the engine
// considers restarting it — hysteresis against shed/restart thrash.
const restartHoldoff = 60 * time.Second

// maybeRestart brings one shed server back when the cluster has headroom
// for its draw — from the grid, or from the buffers through the relays
// (the controller reconnects shed servers to whichever source can carry
// them).
func (e *Engine) maybeRestart(now time.Duration, supply units.Power) {
	id, anyOff := e.fabric.FirstOffline()
	if !anyOff {
		return
	}
	if e.hasShed && now-e.lastShed < restartHoldoff {
		return
	}
	effSupply := e.utilityConv.OutputFor(supply)
	demand := e.fabric.TotalDemand()
	var idle units.Power
	if s := e.fabric.ServerByID(id); s != nil {
		idle = s.Config().IdlePower
	}
	// Storage can back the restart too, at a conservative discount on
	// its instantaneous capability.
	storage := e.cfg.Battery.MaxDischargePower()
	if e.cfg.Supercap != nil {
		storage += e.cfg.Supercap.MaxDischargePower()
	}
	headroom := effSupply*95/100 + storage*70/100
	if demand+idle <= headroom {
		_ = e.fabric.Assign(id, power.SourceUtility)
	}
}

// observeDemand keeps the tick's total demand, folds it into the demand
// digest when the run checkpoints, and tracks the slot's peak and valley.
func (e *Engine) observeDemand(d units.Power) {
	e.demand = d
	if e.cfg.Checkpoints != nil && e.cfg.CheckpointEvery > 0 {
		e.demandDigest.Fold(math.Float64bits(float64(d)))
	}
	if !e.slotHasSample {
		e.slotPeak, e.slotValley = d, d
		e.slotHasSample = true
		return
	}
	if d > e.slotPeak {
		e.slotPeak = d
	}
	if d < e.slotValley {
		e.slotValley = d
	}
}

func maxPower(a, b units.Power) units.Power {
	if a > b {
		return a
	}
	return b
}

func fracEnergy(avail, capacity units.Energy) float64 {
	if capacity <= 0 {
		return 0
	}
	return units.Clamp(float64(avail)/float64(capacity), 0, 1)
}

func (e *Engine) result() Result {
	cfg := e.cfg
	meter := e.fabric.Meter()

	baStats := cfg.Battery.Stats()
	var scStats esd.Stats
	if cfg.Supercap != nil {
		scStats = cfg.Supercap.Stats()
	}
	// Energy efficiency: useful output is what the buffers delivered to
	// servers plus any net growth of the store (usable later); input is
	// what sources pushed in plus any net depletion of the initial
	// store. Both directions of the net-store delta appear on exactly
	// one side, so banked-but-unused energy is neither free nor wasted.
	finalStored := e.storedTotal()
	charged := float64(baStats.EnergyIn + scStats.EnergyIn)
	depleted := float64(e.initialStored - finalStored)
	delivered := float64(e.servedBA + e.servedSC)
	useful := delivered + math.Max(0, -depleted)
	denom := charged + math.Max(0, depleted)
	ee := 0.0
	if denom > 0 {
		ee = units.Clamp(useful/denom, 0, 1)
	}

	var bootWaste units.Energy
	var cycles int
	for _, s := range cfg.Servers {
		bootWaste += s.BootWaste()
		cycles += s.PowerCycles()
	}

	res := Result{
		Scheme:                cfg.Controller.Scheme().Name(),
		Duration:              cfg.Duration,
		Steps:                 e.steps,
		EnergyEfficiency:      ee,
		ServedFromBattery:     e.servedBA,
		ServedFromSupercap:    e.servedSC,
		ChargedIntoBuffers:    units.Energy(charged),
		BufferLosses:          baStats.Loss + scStats.Loss,
		ConversionLoss:        e.dischargeConv.Loss() + e.utilityConv.Loss(),
		DowntimeServerSeconds: meter.DowntimeServerSeconds,
		UnservedEnergy:        meter.Unserved,
		ShedEvents:            e.shedEvents,
		PowerCycles:           cycles,
		BootWaste:             bootWaste,
		UtilityEnergy:         e.utilityDrawn,
		UtilityPeak:           e.utilityPeak,
		MismatchSteps:         e.mismatchSteps,
		SlotCount:             cfg.Controller.SlotCount(),
		DegradedServerSeconds: e.degradedSecs,
		RelaySwitches:         e.fabric.SwitchCounts(),
	}
	if e.steps > 0 {
		res.DowntimeFraction = meter.DowntimeServerSeconds /
			(float64(e.steps) * cfg.Step.Seconds() * float64(len(cfg.Servers)))
	}

	// Battery wear and projected lifetime.
	if report, n := cfg.Battery.Wear(); n > 0 {
		bc, _ := cfg.Battery.BatteryConfig()
		res.BatteryWear = report
		res.BatteryLifetimeYears = report.EstimateYears(bc.Life, cfg.Duration)
	}

	if cfg.Renewable {
		res.RenewableGenerated = e.renewGen
		res.RenewableUsed = e.renewUsed
		res.RenewableStored = e.renewStored
		res.RenewableSpilled = e.renewSpilled
		if e.renewGen > 0 {
			res.REU = units.Clamp(float64(e.renewUsed+e.renewStored)/float64(e.renewGen), 0, 1)
		}
	}

	peakErr, valleyErr := cfg.Controller.PredictionErrors()
	res.PeakPredictionMAPE = peakErr.MAPE()
	res.ValleyPredictionMAPE = valleyErr.MAPE()
	res.SlotPeaks = append([]float64(nil), e.slotPeaks...)
	res.SlotValleys = append([]float64(nil), e.slotValleys...)
	return res
}

package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/units"
)

// CappedFreq records one server's pre-capping frequency in a checkpoint;
// the engine's map serializes as a sorted slice so the encoding is
// deterministic across runs and worker counts.
type CappedFreq struct {
	ID   int             `json:"id"`
	Freq power.FreqLevel `json:"freq"`
}

// EngineState is the flight-recorder snapshot of a run at a control-slot
// boundary: every accumulator, the in-flight slot plan, and the full
// state of the storage devices, relay fabric, controller and feed. It
// holds simulation state only — what the event tap keeps for change
// detection (the open-mismatch flag, the last dispatch mode) stays out —
// so a run's chain is byte-identical whichever hooks it has on. Nothing
// restores from it: a resumed run re-simulates from the seed and checks
// its records against the carried chain, and hebobs bisect diffs two chains
// field by field. The metric series and the PAT entries, the parts that
// grow with run length or table size, travel as digests.
type EngineState struct {
	Steps int           `json:"steps"`
	Now   time.Duration `json:"now"`

	Decision      core.Decision `json:"decision"`
	View          core.SlotView `json:"view"`
	SlotPeak      units.Power   `json:"slot_peak"`
	SlotValley    units.Power   `json:"slot_valley"`
	SlotHasSample bool          `json:"slot_has_sample"`

	LastShed time.Duration `json:"last_shed"`
	HasShed  bool          `json:"has_shed"`

	CappedFrom   []CappedFreq `json:"capped_from,omitempty"`
	DegradedSecs float64      `json:"degraded_secs"`

	ServedSC      units.Energy `json:"served_sc"`
	ServedBA      units.Energy `json:"served_ba"`
	RenewGen      units.Energy `json:"renew_gen"`
	RenewUsed     units.Energy `json:"renew_used"`
	RenewStored   units.Energy `json:"renew_stored"`
	RenewSpilled  units.Energy `json:"renew_spilled"`
	UtilityDrawn  units.Energy `json:"utility_drawn"`
	UtilityPeak   units.Power  `json:"utility_peak"`
	InitialStored units.Energy `json:"initial_stored"`

	ShedEvents    int `json:"shed_events"`
	MismatchSteps int `json:"mismatch_steps"`

	DischargeConvLoss units.Energy `json:"discharge_conv_loss"`
	UtilityConvLoss   units.Energy `json:"utility_conv_loss"`

	Battery  esd.DeviceState   `json:"battery"`
	Supercap *esd.DeviceState  `json:"supercap,omitempty"`
	Fabric   power.FabricState `json:"fabric"`

	Feed *power.UtilityFeedState `json:"feed,omitempty"`

	DemandSeries pat.Digest           `json:"demand_series"`
	SlotPeaks    pat.Digest           `json:"slot_peaks"`
	SlotValleys  pat.Digest           `json:"slot_valleys"`
	Controller   core.ControllerState `json:"controller"`
}

// checkpoint assembles the state at a slot boundary, first folding the
// series samples appended since the previous checkpoint into their
// running digests: a digest depends on its series alone, not on the
// checkpoint cadence.
func (e *Engine) checkpoint() (EngineState, error) {
	foldSeries(&e.demandDigest, e.demandSeries)
	foldSeries(&e.peaksDigest, e.slotPeaks)
	foldSeries(&e.valleysDigest, e.slotValleys)
	st := EngineState{
		Steps:         e.steps,
		Now:           e.now,
		Decision:      e.decision,
		View:          e.view,
		SlotPeak:      e.slotPeak,
		SlotValley:    e.slotValley,
		SlotHasSample: e.slotHasSample,
		LastShed:      e.lastShed,
		HasShed:       e.hasShed,
		DegradedSecs:  e.degradedSecs,
		ServedSC:      e.servedSC,
		ServedBA:      e.servedBA,
		RenewGen:      e.renewGen,
		RenewUsed:     e.renewUsed,
		RenewStored:   e.renewStored,
		RenewSpilled:  e.renewSpilled,
		UtilityDrawn:  e.utilityDrawn,
		UtilityPeak:   e.utilityPeak,
		InitialStored: e.initialStored,
		DemandSeries:  e.demandDigest,
		SlotPeaks:     e.peaksDigest,
		SlotValleys:   e.valleysDigest,
		ShedEvents:    e.shedEvents,
		MismatchSteps: e.mismatchSteps,
		Fabric:        e.fabric.Checkpoint(),
	}
	if e.dischargeConv != nil {
		st.DischargeConvLoss = e.dischargeConv.Loss()
	}
	if e.utilityConv != nil {
		st.UtilityConvLoss = e.utilityConv.Loss()
	}
	if len(e.cappedFrom) > 0 {
		st.CappedFrom = make([]CappedFreq, 0, len(e.cappedFrom))
		for id, f := range e.cappedFrom {
			st.CappedFrom = append(st.CappedFrom, CappedFreq{ID: id, Freq: f})
		}
		sort.Slice(st.CappedFrom, func(i, j int) bool { return st.CappedFrom[i].ID < st.CappedFrom[j].ID })
	}
	var err error
	if st.Battery, err = esd.CheckpointDevice(e.cfg.Battery); err != nil {
		return EngineState{}, fmt.Errorf("sim: checkpoint battery: %w", err)
	}
	if e.cfg.Supercap != nil {
		ds, err := esd.CheckpointDevice(e.cfg.Supercap)
		if err != nil {
			return EngineState{}, fmt.Errorf("sim: checkpoint supercap: %w", err)
		}
		st.Supercap = &ds
	}
	if uf, ok := e.cfg.Feed.(*power.UtilityFeed); ok {
		fs := uf.Checkpoint()
		st.Feed = &fs
	}
	if st.Controller, err = e.cfg.Controller.Checkpoint(); err != nil {
		return EngineState{}, fmt.Errorf("sim: checkpoint controller: %w", err)
	}
	return st, nil
}

// foldSeries folds the samples of s beyond d.Len into d.
func foldSeries(d *pat.Digest, s []float64) {
	for _, v := range s[d.Len:] {
		d.Fold(math.Float64bits(v))
	}
}

// emitCheckpoint marshals the state and hands it to the configured sink,
// reporting the sink's verdict on whether the run goes on. It runs only
// at checkpointed slot boundaries, never in the hot loop.
func (e *Engine) emitCheckpoint(slot, step int, now time.Duration) bool {
	st, err := e.checkpoint()
	if err != nil {
		// State assembly fails only on a device/predictor type the
		// serializer does not know; surface loudly rather than record a
		// silently broken chain.
		panic(fmt.Sprintf("sim: checkpoint at slot %d: %v", slot, err))
	}
	b, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("sim: marshal checkpoint at slot %d: %v", slot, err))
	}
	return e.cfg.Checkpoints(slot, step, now, b)
}

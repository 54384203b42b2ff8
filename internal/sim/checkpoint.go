package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/jsonx"
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
// its records against the carried chain, and hebbisect diffs two chains
// field by field.
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

	// The metric series and the controller are declared last, omitempty:
	// emitCheckpoint marshals the state with these fields empty (the
	// reflected "head") and hand-appends them — the series through the
	// jsonx fast path, the controller through its own stitcher — so the
	// result still matches json.Marshal's field order byte-for-byte.
	DemandSeries []float64             `json:"demand_series,omitempty"`
	SlotPeaks    []float64             `json:"slot_peaks,omitempty"`
	SlotValleys  []float64             `json:"slot_valleys,omitempty"`
	Controller   *core.ControllerState `json:"controller,omitempty"`
}

// checkpoint assembles the state at a slot boundary, with the series
// fields aliasing the engine's live slices (emitCheckpoint marshals
// immediately). The controller is left to the caller: the full and delta
// paths encode it differently, and assembling the full PAT just to
// discard it would dominate the delta path's cost.
func (e *Engine) checkpoint() (EngineState, error) {
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
		DemandSeries:  e.demandSeries,
		SlotPeaks:     e.slotPeaks,
		SlotValleys:   e.slotValleys,
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
	return st, nil
}

// appendSeriesField appends `,"<key>":[...]` with the jsonx float fast
// path; key must carry the leading comma and trailing colon.
func appendSeriesField(b []byte, key string, s []float64) []byte {
	b = append(b, key...)
	return jsonx.AppendFloats(b, s)
}

// ckptBufPool holds the serialization buffers emitCheckpoint stitches
// records into. A buffer is borrowed for the duration of one emission
// (the sink must copy what it keeps) and returned grown, so after the
// first keyframe has sized it, emissions allocate nothing for the
// record itself — no matter how many short-lived engines come and go.
var ckptBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// emitCheckpoint serializes the state into a pooled buffer and hands it
// to the configured sink (which must copy — the buffer goes back to the
// pool when the sink returns), reporting the sink's verdict on whether
// the run goes on. It runs only at checkpointed slot boundaries, never
// in the hot loop.
//
// The document is stitched rather than marshaled in one reflection pass:
// the reflected "head" (everything but the metric series and the
// controller) is cheap, while the series and the PAT — the two parts
// whose size grows with run length and table size — go through
// hand-rolled encoders. When cfg.CheckpointDelta approves, the record is
// delta-encoded: the series carry only the samples grown since the
// previous emission (tagged with "<key>@base" splice offsets) and the
// PAT travels as a keyed-merge patch of the entries the slot touched, so
// a record's cost tracks slot activity instead of run history.
func (e *Engine) emitCheckpoint(slot, step int, now time.Duration) bool {
	delta := e.cfg.CheckpointDelta != nil && e.cfg.CheckpointDelta()
	st, err := e.checkpoint()
	if err != nil {
		// State assembly fails only on a device/predictor type the
		// serializer does not know; surface loudly rather than record a
		// silently broken chain.
		panic(fmt.Sprintf("sim: checkpoint at slot %d: %v", slot, err))
	}
	// The head reflects everything except the series and controller;
	// both are declared omitempty and left unset here.
	series := [3][]float64{st.DemandSeries, st.SlotPeaks, st.SlotValleys}
	st.DemandSeries, st.SlotPeaks, st.SlotValleys = nil, nil, nil
	head, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("sim: marshal checkpoint at slot %d: %v", slot, err))
	}
	bp := ckptBufPool.Get().(*[]byte)
	b := append((*bp)[:0], head[:len(head)-1]...)
	if delta {
		b = appendSeriesField(b, `,"demand_series":`, series[0][e.ckptDemandLen:])
		b = appendSeriesField(b, `,"slot_peaks":`, series[1][e.ckptPeaksLen:])
		b = appendSeriesField(b, `,"slot_valleys":`, series[2][e.ckptValleysLen:])
		b = append(b, `,"demand_series@base":`...)
		b = jsonx.AppendInt(b, e.ckptDemandLen)
		b = append(b, `,"slot_peaks@base":`...)
		b = jsonx.AppendInt(b, e.ckptPeaksLen)
		b = append(b, `,"slot_valleys@base":`...)
		b = jsonx.AppendInt(b, e.ckptValleysLen)
	} else {
		b = appendSeriesField(b, `,"demand_series":`, series[0])
		b = appendSeriesField(b, `,"slot_peaks":`, series[1])
		b = appendSeriesField(b, `,"slot_valleys":`, series[2])
	}
	b = append(b, `,"controller":`...)
	if delta {
		cd, err := e.cfg.Controller.CheckpointDelta()
		if err != nil {
			panic(fmt.Sprintf("sim: checkpoint controller at slot %d: %v", slot, err))
		}
		cb, err := json.Marshal(cd)
		if err != nil {
			panic(fmt.Sprintf("sim: marshal controller delta at slot %d: %v", slot, err))
		}
		b = append(b, cb...)
	} else {
		if b, err = e.cfg.Controller.AppendCheckpointJSON(b); err != nil {
			panic(fmt.Sprintf("sim: checkpoint controller at slot %d: %v", slot, err))
		}
	}
	b = append(b, '}')
	// Every emission — keyframe or delta — becomes the next delta's
	// baseline: the series lengths and the PAT marks both reset here.
	e.ckptDemandLen = len(e.demandSeries)
	e.ckptPeaksLen = len(e.slotPeaks)
	e.ckptValleysLen = len(e.slotValleys)
	e.cfg.Controller.MarkCheckpointed()
	ok := e.cfg.Checkpoints(slot, step, now, b, delta)
	*bp = b
	ckptBufPool.Put(bp)
	return ok
}

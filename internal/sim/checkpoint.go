package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/jsonenc"
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

// AppendJSON writes the state as json.Marshal does, through each nested
// state's appender; a NaN or infinite float sets o.Err. The tests hold it
// to json.Marshal field by field and under the fuzzer.
func (s *EngineState) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"steps":`, s.Steps)
	o.Int64(`,"now":`, int64(s.Now))
	o.Key(`,"decision":`)
	s.Decision.AppendJSON(o)
	o.Key(`,"view":`)
	s.View.AppendJSON(o)
	o.Float(`,"slot_peak":`, float64(s.SlotPeak))
	o.Float(`,"slot_valley":`, float64(s.SlotValley))
	o.Bool(`,"slot_has_sample":`, s.SlotHasSample)
	o.Int64(`,"last_shed":`, int64(s.LastShed))
	o.Bool(`,"has_shed":`, s.HasShed)
	jsonenc.SliceOmit(o, `,"capped_from":`, s.CappedFrom, (*CappedFreq).AppendJSON)
	o.Float(`,"degraded_secs":`, s.DegradedSecs)
	o.Float(`,"served_sc":`, float64(s.ServedSC))
	o.Float(`,"served_ba":`, float64(s.ServedBA))
	o.Float(`,"renew_gen":`, float64(s.RenewGen))
	o.Float(`,"renew_used":`, float64(s.RenewUsed))
	o.Float(`,"renew_stored":`, float64(s.RenewStored))
	o.Float(`,"renew_spilled":`, float64(s.RenewSpilled))
	o.Float(`,"utility_drawn":`, float64(s.UtilityDrawn))
	o.Float(`,"utility_peak":`, float64(s.UtilityPeak))
	o.Float(`,"initial_stored":`, float64(s.InitialStored))
	o.Int(`,"shed_events":`, s.ShedEvents)
	o.Int(`,"mismatch_steps":`, s.MismatchSteps)
	o.Float(`,"discharge_conv_loss":`, float64(s.DischargeConvLoss))
	o.Float(`,"utility_conv_loss":`, float64(s.UtilityConvLoss))
	o.Key(`,"battery":`)
	s.Battery.AppendJSON(o)
	if s.Supercap != nil {
		o.Key(`,"supercap":`)
		s.Supercap.AppendJSON(o)
	}
	o.Key(`,"fabric":`)
	s.Fabric.AppendJSON(o)
	if s.Feed != nil {
		o.Key(`,"feed":`)
		s.Feed.AppendJSON(o)
	}
	o.Key(`,"demand_series":`)
	s.DemandSeries.AppendJSON(o)
	o.Key(`,"slot_peaks":`)
	s.SlotPeaks.AppendJSON(o)
	o.Key(`,"slot_valleys":`)
	s.SlotValleys.AppendJSON(o)
	o.Key(`,"controller":`)
	s.Controller.AppendJSON(o)
	o.Close()
}

// AppendJSON writes the entry as json.Marshal does.
func (c *CappedFreq) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"id":`, c.ID)
	o.Int(`,"freq":`, int(c.Freq))
	o.Close()
}

// checkpoint assembles the state at a slot boundary, first folding the
// slot samples appended since the previous checkpoint into their running
// digests (the demand digest is folded each tick): a digest depends on
// its series alone, not on the checkpoint cadence.
func (e *Engine) checkpoint() (EngineState, error) {
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
	st.DischargeConvLoss = e.dischargeConv.Loss()
	st.UtilityConvLoss = e.utilityConv.Loss()
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
	if _, ok := e.cfg.Feed.(*power.UtilityFeed); ok {
		st.Feed = &power.UtilityFeedState{Drawn: e.utilityDrawn, Peak: e.utilityPeak}
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

// emitCheckpoint encodes the state into the engine's checkpoint buffer,
// which it reuses from one checkpoint to the next, and hands it to the
// configured sink, reporting the sink's verdict on whether the run goes
// on. The bytes are json.Marshal's; a sink that keeps them must copy
// them. It runs only at checkpointed slot boundaries, never in the hot
// loop.
func (e *Engine) emitCheckpoint(slot, step int, now time.Duration) bool {
	st, err := e.checkpoint()
	if err != nil {
		// State assembly fails only on a device/predictor type the
		// serializer does not know; surface loudly rather than record a
		// silently broken chain.
		panic(fmt.Sprintf("sim: checkpoint at slot %d: %v", slot, err))
	}
	o := jsonenc.Object{B: e.ckptBuf[:0]}
	st.AppendJSON(&o)
	e.ckptBuf = o.B
	if o.Err != nil {
		panic(fmt.Sprintf("sim: encode checkpoint at slot %d: %v", slot, o.Err))
	}
	return e.cfg.Checkpoints(slot, step, now, e.ckptBuf)
}

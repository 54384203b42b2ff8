package core

import (
	"heb/internal/forecast"
	"heb/internal/jsonenc"
	"heb/internal/pat"
)

// ControllerState is the flight-recorder snapshot of hControl: predictor
// internals, accuracy accumulators, the in-flight slot, the PAT (which is
// the only state the learning schemes hold) and the sensor-noise stream
// position. The decision record the trace tap keeps pending stays out,
// so the snapshot does not depend on whether tracing is on.
type ControllerState struct {
	SlotCount int      `json:"slot_count"`
	HaveSlot  bool     `json:"have_slot"`
	LastView  SlotView `json:"last_view"`

	PeakPredictor   forecast.PredictorState `json:"peak_predictor"`
	ValleyPredictor forecast.PredictorState `json:"valley_predictor"`
	PeakErrors      forecast.ErrorsState    `json:"peak_errors"`
	ValleyErrors    forecast.ErrorsState    `json:"valley_errors"`

	LastLookups int `json:"last_lookups,omitempty"`
	LastMisses  int `json:"last_misses,omitempty"`

	// NoiseDraws is how many Float64 values the sensor-noise generator
	// has produced: its stream position.
	NoiseDraws int64 `json:"noise_draws,omitempty"`

	PAT *pat.TableState `json:"pat,omitempty"`
}

// AppendJSON writes the state as json.Marshal does.
func (s *ControllerState) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"slot_count":`, s.SlotCount)
	o.Bool(`,"have_slot":`, s.HaveSlot)
	o.Key(`,"last_view":`)
	s.LastView.AppendJSON(o)
	o.Key(`,"peak_predictor":`)
	s.PeakPredictor.AppendJSON(o)
	o.Key(`,"valley_predictor":`)
	s.ValleyPredictor.AppendJSON(o)
	o.Key(`,"peak_errors":`)
	s.PeakErrors.AppendJSON(o)
	o.Key(`,"valley_errors":`)
	s.ValleyErrors.AppendJSON(o)
	o.IntOmit(`,"last_lookups":`, s.LastLookups)
	o.IntOmit(`,"last_misses":`, s.LastMisses)
	o.Int64Omit(`,"noise_draws":`, s.NoiseDraws)
	if s.PAT != nil {
		o.Key(`,"pat":`)
		s.PAT.AppendJSON(o)
	}
	o.Close()
}

// AppendJSON writes the view (defined in scheme.go, untagged) as
// json.Marshal does.
func (v *SlotView) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"SCFrac":`, v.SCFrac)
	o.Float(`,"BAFrac":`, v.BAFrac)
	o.Float(`,"SCAvail":`, float64(v.SCAvail))
	o.Float(`,"BAAvail":`, float64(v.BAAvail))
	o.Float(`,"PredictedPeak":`, float64(v.PredictedPeak))
	o.Float(`,"PredictedValley":`, float64(v.PredictedValley))
	o.Float(`,"PredictedPM":`, float64(v.PredictedPM))
	o.Float(`,"PredictedOver":`, float64(v.PredictedOver))
	o.Float(`,"Budget":`, float64(v.Budget))
	o.Int(`,"NumServers":`, v.NumServers)
	o.Bool(`,"SmallPeak":`, v.SmallPeak)
	o.Close()
}

// AppendJSON writes the decision (defined in scheme.go, untagged) as
// json.Marshal does.
func (d *Decision) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"Mode":`, int(d.Mode))
	o.Float(`,"Ratio":`, d.Ratio)
	o.Close()
}

// Checkpoint captures the controller's full mutable state, the PAT as
// its digest.
func (c *Controller) Checkpoint() (ControllerState, error) {
	st := ControllerState{
		SlotCount:    c.slotCount,
		HaveSlot:     c.haveSlot,
		LastView:     c.lastView,
		PeakErrors:   c.peakErr.Checkpoint(),
		ValleyErrors: c.valleyErr.Checkpoint(),
		LastLookups:  c.lastLookups,
		LastMisses:   c.lastMisses,
		NoiseDraws:   c.noiseDraws,
	}
	var err error
	if st.PeakPredictor, err = forecast.CheckpointPredictor(c.peakPred); err != nil {
		return ControllerState{}, err
	}
	if st.ValleyPredictor, err = forecast.CheckpointPredictor(c.valleyPred); err != nil {
		return ControllerState{}, err
	}
	if c.patTable != nil {
		ts := c.patTable.Checkpoint()
		st.PAT = &ts
	}
	return st, nil
}

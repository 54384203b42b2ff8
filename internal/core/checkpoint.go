package core

import (
	"heb/internal/forecast"
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

package core

import (
	"encoding/json"
	"fmt"

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

	// PAT is declared last so AppendCheckpointJSON can stitch the
	// hand-encoded table onto the reflected head and still match
	// json.Marshal's field order byte-for-byte.
	PAT *pat.TableState `json:"pat,omitempty"`
}

// ControllerStateDelta is the delta form of ControllerState: the outer
// PATPatch field shadows the embedded full PAT under the same "pat" JSON
// key, so a delta record carries only the table entries the slot touched.
// The checkpoint chain's keyed-merge splice materializes it back into a
// document ControllerState unmarshals unchanged.
type ControllerStateDelta struct {
	ControllerState
	PATPatch *pat.TablePatch `json:"pat,omitempty"`
}

// Checkpoint captures the controller's full mutable state.
func (c *Controller) Checkpoint() (ControllerState, error) {
	st, err := c.checkpointCommon()
	if err != nil {
		return ControllerState{}, err
	}
	if c.patTable != nil {
		ts := c.patTable.Checkpoint()
		st.PAT = &ts
	}
	return st, nil
}

// CheckpointDelta captures the controller's state with the PAT reduced to
// the entries changed since the last MarkCheckpointed. Everything outside
// the PAT is small and rides along in full.
func (c *Controller) CheckpointDelta() (ControllerStateDelta, error) {
	st, err := c.checkpointCommon()
	if err != nil {
		return ControllerStateDelta{}, err
	}
	d := ControllerStateDelta{ControllerState: st}
	if c.patTable != nil {
		p, err := c.patTable.CheckpointPatch()
		if err != nil {
			return ControllerStateDelta{}, fmt.Errorf("core: %w", err)
		}
		d.PATPatch = &p
	}
	return d, nil
}

// AppendCheckpointJSON appends the controller's full checkpoint state to
// b, byte-for-byte what marshaling Checkpoint() produces: the reflected
// head (PAT omitted) with the hand-encoded table stitched on as the
// final field.
func (c *Controller) AppendCheckpointJSON(b []byte) ([]byte, error) {
	st, err := c.checkpointCommon()
	if err != nil {
		return nil, err
	}
	head, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("core: marshal controller state: %w", err)
	}
	if c.patTable == nil {
		return append(b, head...), nil
	}
	b = append(b, head[:len(head)-1]...)
	b = append(b, `,"pat":`...)
	b, err = c.patTable.AppendCheckpointJSON(b)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// TrackCheckpointDeltas turns on the PAT's change tracking so
// CheckpointDelta can report keyed-merge patches; the engine enables it
// before the first step of a delta-checkpointed run.
func (c *Controller) TrackCheckpointDeltas() {
	if c.patTable != nil {
		c.patTable.TrackChanges()
	}
}

// MarkCheckpointed resets the PAT's delta baseline; the engine calls it
// after every emitted checkpoint record (keyframe or delta).
func (c *Controller) MarkCheckpointed() {
	if c.patTable != nil {
		c.patTable.MarkCheckpointed()
	}
}

// checkpointCommon assembles everything except the PAT, which the full
// and delta paths encode differently.
func (c *Controller) checkpointCommon() (ControllerState, error) {
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
	return st, nil
}

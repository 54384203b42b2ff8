package forecast

import (
	"fmt"

	"heb/internal/jsonenc"
)

// Flight-recorder state for the demand predictors: each predictor's
// internal windows/components serialize losslessly, so two runs whose
// forecasts diverge produce different checkpoint records.

// NaiveState is the serialized state of a Naive predictor.
type NaiveState struct {
	Last float64 `json:"last"`
	Seen bool    `json:"seen"`
}

// HoltWintersState is the serialized state of a HoltWinters smoother.
type HoltWintersState struct {
	Level  float64   `json:"level"`
	Trend  float64   `json:"trend"`
	Season []float64 `json:"season,omitempty"`
	Idx    int       `json:"idx"`
	N      int       `json:"n"`
	Warmup []float64 `json:"warmup,omitempty"`
}

// OracleState is the serialized state of an Oracle predictor (the primed
// series itself is construction-time configuration, not state).
type OracleState struct {
	Idx  int     `json:"idx"`
	Last float64 `json:"last"`
	Seen bool    `json:"seen"`
}

// PredictorState is a kind-tagged union over the predictor types.
type PredictorState struct {
	Kind        string            `json:"kind"`
	Naive       *NaiveState       `json:"naive,omitempty"`
	HoltWinters *HoltWintersState `json:"holt_winters,omitempty"`
	Oracle      *OracleState      `json:"oracle,omitempty"`
}

// ErrorsState is the serialized state of an online Errors tracker.
type ErrorsState struct {
	N          int     `json:"n"`
	SumAbs     float64 `json:"sum_abs"`
	SumAbsPct  float64 `json:"sum_abs_pct"`
	SumSquared float64 `json:"sum_squared"`
}

// AppendJSON writes the state as json.Marshal does.
func (s *PredictorState) AppendJSON(o *jsonenc.Object) {
	o.Str(`{"kind":`, s.Kind)
	if s.Naive != nil {
		o.Key(`,"naive":`)
		s.Naive.AppendJSON(o)
	}
	if s.HoltWinters != nil {
		o.Key(`,"holt_winters":`)
		s.HoltWinters.AppendJSON(o)
	}
	if s.Oracle != nil {
		o.Key(`,"oracle":`)
		s.Oracle.AppendJSON(o)
	}
	o.Close()
}

// AppendJSON writes the state as json.Marshal does.
func (s *NaiveState) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"last":`, s.Last)
	o.Bool(`,"seen":`, s.Seen)
	o.Close()
}

// AppendJSON writes the state as json.Marshal does.
func (s *HoltWintersState) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"level":`, s.Level)
	o.Float(`,"trend":`, s.Trend)
	jsonenc.SliceOmit(o, `,"season":`, s.Season, appendFloat)
	o.Int(`,"idx":`, s.Idx)
	o.Int(`,"n":`, s.N)
	jsonenc.SliceOmit(o, `,"warmup":`, s.Warmup, appendFloat)
	o.Close()
}

func appendFloat(x *float64, o *jsonenc.Object) { o.Float("", *x) }

// AppendJSON writes the state as json.Marshal does.
func (s *OracleState) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"idx":`, s.Idx)
	o.Float(`,"last":`, s.Last)
	o.Bool(`,"seen":`, s.Seen)
	o.Close()
}

// AppendJSON writes the state as json.Marshal does.
func (s *ErrorsState) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"n":`, s.N)
	o.Float(`,"sum_abs":`, s.SumAbs)
	o.Float(`,"sum_abs_pct":`, s.SumAbsPct)
	o.Float(`,"sum_squared":`, s.SumSquared)
	o.Close()
}

// Checkpoint captures the error tracker's accumulators.
func (e *Errors) Checkpoint() ErrorsState {
	return ErrorsState{N: e.n, SumAbs: e.sumAbs, SumAbsPct: e.sumAbsPct, SumSquared: e.sumSquared}
}

// CheckpointPredictor serializes any built-in Predictor implementation.
func CheckpointPredictor(p Predictor) (PredictorState, error) {
	switch v := p.(type) {
	case *Naive:
		return PredictorState{Kind: "naive", Naive: &NaiveState{Last: v.last, Seen: v.seen}}, nil
	case *HoltWinters:
		return PredictorState{Kind: "holt-winters", HoltWinters: &HoltWintersState{
			Level:  v.level,
			Trend:  v.trend,
			Season: append([]float64(nil), v.season...),
			Idx:    v.idx,
			N:      v.n,
			Warmup: append([]float64(nil), v.warmup...),
		}}, nil
	case *Oracle:
		return PredictorState{Kind: "oracle", Oracle: &OracleState{Idx: v.idx, Last: v.last, Seen: v.seen}}, nil
	default:
		return PredictorState{}, fmt.Errorf("forecast: cannot checkpoint predictor type %T", p)
	}
}

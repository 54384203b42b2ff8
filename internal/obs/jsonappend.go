package obs

import "heb/internal/jsonenc"

// jsonAppender is a record type with a hand-written JSON encoding. Its
// appendJSON writes exactly what json.Encoder.Encode writes for the
// record, minus the trailing newline: fields in struct order, omitempty
// as the tags say, encoding/json's float form and HTML-escaped strings,
// built on jsonenc.Object. A NaN or infinite float fails as it does in
// encoding/json. FuzzJSONLMatchesEncoder holds each appender to the
// encoder.
type jsonAppender interface {
	appendJSON(dst []byte) ([]byte, error)
}

func (e *Event) appendJSON(dst []byte) ([]byte, error) {
	o := jsonenc.Object{B: dst}
	o.Float(`{"t":`, e.Seconds)
	o.Str(`,"kind":`, e.Kind.String())
	o.Int(`,"server":`, e.Server)
	o.StrOmit(`,"from":`, e.From)
	o.StrOmit(`,"to":`, e.To)
	o.FloatOmit(`,"watts":`, e.Watts)
	o.StrOmit(`,"detail":`, e.Detail)
	o.StrOmit(`,"run":`, e.Run)
	return o.End()
}

func (d *DecisionRecord) appendJSON(dst []byte) ([]byte, error) {
	o := jsonenc.Object{B: dst}
	o.Int(`{"slot":`, d.Slot)
	o.Float(`,"t":`, d.Seconds)
	o.StrOmit(`,"scheme":`, d.Scheme)
	o.Float(`,"sc_frac":`, d.SCFrac)
	o.Float(`,"ba_frac":`, d.BAFrac)
	o.Float(`,"sc_avail_wh":`, d.SCAvailWh)
	o.Float(`,"ba_avail_wh":`, d.BAAvailWh)
	o.Float(`,"budget_w":`, d.BudgetW)
	o.Float(`,"pred_peak_w":`, d.PredictedPeakW)
	o.Float(`,"pred_valley_w":`, d.PredictedValleyW)
	o.Float(`,"pred_pm_w":`, d.PredictedPMW)
	o.Float(`,"pred_over_w":`, d.PredictedOverW)
	o.Bool(`,"small_peak":`, d.SmallPeak)
	o.Str(`,"mode":`, d.Mode)
	o.Float(`,"ratio":`, d.Ratio)
	o.IntOmit(`,"pat_lookups":`, d.PATLookups)
	o.IntOmit(`,"pat_misses":`, d.PATMisses)
	o.Bool(`,"completed":`, d.Completed)
	o.FloatOmit(`,"actual_peak_w":`, d.ActualPeakW)
	o.FloatOmit(`,"actual_valley_w":`, d.ActualValleyW)
	o.FloatOmit(`,"actual_pm_w":`, d.ActualPMW)
	o.FloatOmit(`,"actual_over_w":`, d.ActualOverW)
	o.FloatOmit(`,"sc_frac_end":`, d.SCFracEnd)
	o.FloatOmit(`,"ba_frac_end":`, d.BAFracEnd)
	o.FloatOmit(`,"ratio_used":`, d.RatioUsed)
	o.StrOmit(`,"run":`, d.Run)
	return o.End()
}

func (s *ProbeSample) appendJSON(dst []byte) ([]byte, error) {
	o := jsonenc.Object{B: dst}
	o.Float(`{"t":`, s.Seconds)
	o.Str(`,"device":`, s.Device)
	o.Float(`,"soc":`, s.SoC)
	o.Float(`,"v":`, s.VoltageV)
	o.Float(`,"w":`, s.PowerW)
	o.Float(`,"avail_ah":`, s.AvailAh)
	o.Float(`,"bound_ah":`, s.BoundAh)
	o.Float(`,"ah":`, s.ThroughputAh)
	o.StrOmit(`,"run":`, s.Run)
	return o.End()
}

// appendJSON writes State verbatim: the bytes the chain hash covers are
// the bytes written, with no re-compaction.
func (r *CheckpointRecord) appendJSON(dst []byte) ([]byte, error) {
	o := jsonenc.Object{B: dst}
	o.Int(`{"v":`, r.V)
	o.StrOmit(`,"run":`, r.Run)
	o.Int(`,"slot":`, r.Slot)
	o.Int(`,"step":`, r.Step)
	o.Float(`,"t":`, r.Seconds)
	o.Raw(`,"state":`, r.State)
	o.BoolOmit(`,"delta":`, r.Delta)
	o.StrOmit(`,"prev":`, r.Prev)
	o.Str(`,"hash":`, r.Hash)
	return o.End()
}

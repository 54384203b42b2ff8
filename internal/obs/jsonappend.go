package obs

import (
	"encoding/json"
	"math"
	"strconv"
)

// jsonAppender is a record type with a hand-written JSON encoding. Its
// appendJSON writes exactly what json.Encoder.Encode writes for the
// record, minus the trailing newline: fields in struct order, omitempty
// as the tags say, encoding/json's float form and HTML-escaped strings.
// A NaN or infinite float fails as it does in encoding/json.
// FuzzJSONLMatchesEncoder holds each appender to the encoder.
type jsonAppender interface {
	appendJSON(dst []byte) ([]byte, error)
}

// jsonObject builds one JSON object. Each method writes a literal
// prefix (`{"name":` for the first field, `,"name":` for the rest), then
// one value; the omit variants skip zero values as omitempty does. The
// first unencodable float sets err, and later writes are wasted but
// harmless.
type jsonObject struct {
	b   []byte
	err error
}

func (o *jsonObject) float(prefix string, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if o.err == nil {
			o.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(x, 'g', -1, 64)}
		}
		return
	}
	o.b = append(o.b, prefix...)
	o.b = appendJSONFloat(o.b, x)
}

func (o *jsonObject) floatOmit(prefix string, x float64) {
	if x != 0 {
		o.float(prefix, x)
	}
}

func (o *jsonObject) int(prefix string, n int) {
	o.b = append(o.b, prefix...)
	o.b = strconv.AppendInt(o.b, int64(n), 10)
}

func (o *jsonObject) intOmit(prefix string, n int) {
	if n != 0 {
		o.int(prefix, n)
	}
}

func (o *jsonObject) bool(prefix string, v bool) {
	o.b = append(o.b, prefix...)
	o.b = strconv.AppendBool(o.b, v)
}

func (o *jsonObject) boolOmit(prefix string, v bool) {
	if v {
		o.bool(prefix, v)
	}
}

func (o *jsonObject) str(prefix, s string) {
	o.b = append(o.b, prefix...)
	o.b = appendJSONString(o.b, s)
}

func (o *jsonObject) strOmit(prefix, s string) {
	if s != "" {
		o.str(prefix, s)
	}
}

// raw writes v verbatim, or null when v is nil, as json.RawMessage
// marshals; unlike encoding/json it neither validates nor compacts v.
func (o *jsonObject) raw(prefix string, v json.RawMessage) {
	o.b = append(o.b, prefix...)
	if v == nil {
		o.b = append(o.b, "null"...)
		return
	}
	o.b = append(o.b, v...)
}

// end closes the object.
func (o *jsonObject) end() ([]byte, error) {
	return append(o.b, '}'), o.err
}

// appendJSONFloat appends a finite x as encoding/json prints a float64:
// the shortest 'f' form, switching to 'e' below 1e-6 or at and above
// 1e21, with a two-digit negative exponent cleaned from e-07 to e-7.
func appendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as an HTML-escaping encoder quotes it.
// Plain printable ASCII without `"`, `\`, `<`, `>` or `&` is copied
// between quotes; anything else goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Marshal of a string cannot fail.
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func (e *Event) appendJSON(dst []byte) ([]byte, error) {
	o := jsonObject{b: dst}
	o.float(`{"t":`, e.Seconds)
	o.str(`,"kind":`, e.Kind.String())
	o.int(`,"server":`, e.Server)
	o.strOmit(`,"from":`, e.From)
	o.strOmit(`,"to":`, e.To)
	o.floatOmit(`,"watts":`, e.Watts)
	o.strOmit(`,"detail":`, e.Detail)
	o.strOmit(`,"run":`, e.Run)
	return o.end()
}

func (d *DecisionRecord) appendJSON(dst []byte) ([]byte, error) {
	o := jsonObject{b: dst}
	o.int(`{"slot":`, d.Slot)
	o.float(`,"t":`, d.Seconds)
	o.strOmit(`,"scheme":`, d.Scheme)
	o.float(`,"sc_frac":`, d.SCFrac)
	o.float(`,"ba_frac":`, d.BAFrac)
	o.float(`,"sc_avail_wh":`, d.SCAvailWh)
	o.float(`,"ba_avail_wh":`, d.BAAvailWh)
	o.float(`,"budget_w":`, d.BudgetW)
	o.float(`,"pred_peak_w":`, d.PredictedPeakW)
	o.float(`,"pred_valley_w":`, d.PredictedValleyW)
	o.float(`,"pred_pm_w":`, d.PredictedPMW)
	o.float(`,"pred_over_w":`, d.PredictedOverW)
	o.bool(`,"small_peak":`, d.SmallPeak)
	o.str(`,"mode":`, d.Mode)
	o.float(`,"ratio":`, d.Ratio)
	o.intOmit(`,"pat_lookups":`, d.PATLookups)
	o.intOmit(`,"pat_misses":`, d.PATMisses)
	o.bool(`,"completed":`, d.Completed)
	o.floatOmit(`,"actual_peak_w":`, d.ActualPeakW)
	o.floatOmit(`,"actual_valley_w":`, d.ActualValleyW)
	o.floatOmit(`,"actual_pm_w":`, d.ActualPMW)
	o.floatOmit(`,"actual_over_w":`, d.ActualOverW)
	o.floatOmit(`,"sc_frac_end":`, d.SCFracEnd)
	o.floatOmit(`,"ba_frac_end":`, d.BAFracEnd)
	o.floatOmit(`,"ratio_used":`, d.RatioUsed)
	o.strOmit(`,"run":`, d.Run)
	return o.end()
}

func (s *ProbeSample) appendJSON(dst []byte) ([]byte, error) {
	o := jsonObject{b: dst}
	o.float(`{"t":`, s.Seconds)
	o.str(`,"device":`, s.Device)
	o.float(`,"soc":`, s.SoC)
	o.float(`,"v":`, s.VoltageV)
	o.float(`,"w":`, s.PowerW)
	o.float(`,"avail_ah":`, s.AvailAh)
	o.float(`,"bound_ah":`, s.BoundAh)
	o.float(`,"ah":`, s.ThroughputAh)
	o.strOmit(`,"run":`, s.Run)
	return o.end()
}

// appendJSON writes State verbatim: the bytes the chain hash covers are
// the bytes written, with no re-compaction.
func (r *CheckpointRecord) appendJSON(dst []byte) ([]byte, error) {
	o := jsonObject{b: dst}
	o.int(`{"v":`, r.V)
	o.strOmit(`,"run":`, r.Run)
	o.int(`,"slot":`, r.Slot)
	o.int(`,"step":`, r.Step)
	o.float(`,"t":`, r.Seconds)
	o.raw(`,"state":`, r.State)
	o.boolOmit(`,"delta":`, r.Delta)
	o.strOmit(`,"prev":`, r.Prev)
	o.str(`,"hash":`, r.Hash)
	return o.end()
}

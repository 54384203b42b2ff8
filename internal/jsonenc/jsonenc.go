// Package jsonenc appends JSON without reflection. It holds the building
// blocks of the hand-written encoders that write exactly what
// encoding/json writes: the obs JSONL records and the checkpointed
// engine state. It imports nothing of this module, so the state packages
// and obs can both build on it.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// Object builds one JSON object into B. Each value method writes a
// literal prefix (`{"name":` for the first field, `,"name":` for the
// rest), then one value; the Omit variants skip zero values as omitempty
// does. The first unencodable float sets Err, and later writes are
// wasted but harmless. A nested object or array is written by Key
// followed by the nested encoder, which ends with Close.
type Object struct {
	B   []byte
	Err error
}

// Float writes a finite x in encoding/json's float64 form; a NaN or
// infinite x sets Err, as json.Marshal refuses it.
func (o *Object) Float(prefix string, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if o.Err == nil {
			o.Err = &json.UnsupportedValueError{Str: strconv.FormatFloat(x, 'g', -1, 64)}
		}
		return
	}
	o.B = append(o.B, prefix...)
	o.B = AppendFloat(o.B, x)
}

func (o *Object) FloatOmit(prefix string, x float64) {
	if x != 0 {
		o.Float(prefix, x)
	}
}

func (o *Object) Int(prefix string, n int) { o.Int64(prefix, int64(n)) }

func (o *Object) IntOmit(prefix string, n int) {
	if n != 0 {
		o.Int(prefix, n)
	}
}

func (o *Object) Int64(prefix string, n int64) {
	o.B = append(o.B, prefix...)
	o.B = strconv.AppendInt(o.B, n, 10)
}

func (o *Object) Int64Omit(prefix string, n int64) {
	if n != 0 {
		o.Int64(prefix, n)
	}
}

// QuotedUint64 writes n as a JSON string, as a `json:",string"` tag
// encodes an unsigned integer.
func (o *Object) QuotedUint64(prefix string, n uint64) {
	o.B = append(o.B, prefix...)
	o.B = append(o.B, '"')
	o.B = strconv.AppendUint(o.B, n, 10)
	o.B = append(o.B, '"')
}

func (o *Object) Bool(prefix string, v bool) {
	o.B = append(o.B, prefix...)
	o.B = strconv.AppendBool(o.B, v)
}

func (o *Object) BoolOmit(prefix string, v bool) {
	if v {
		o.Bool(prefix, v)
	}
}

func (o *Object) Str(prefix, s string) {
	o.B = append(o.B, prefix...)
	o.B = AppendString(o.B, s)
}

func (o *Object) StrOmit(prefix, s string) {
	if s != "" {
		o.Str(prefix, s)
	}
}

// Raw writes v verbatim, or null when v is nil, as json.RawMessage
// marshals; unlike encoding/json it neither validates nor compacts v.
func (o *Object) Raw(prefix string, v json.RawMessage) {
	o.B = append(o.B, prefix...)
	if v == nil {
		o.B = append(o.B, "null"...)
		return
	}
	o.B = append(o.B, v...)
}

// Key writes prefix alone; the caller's next write is its value.
func (o *Object) Key(prefix string) { o.B = append(o.B, prefix...) }

// Close ends a nested object.
func (o *Object) Close() { o.B = append(o.B, '}') }

// End closes the object and returns its bytes and the first error.
func (o *Object) End() ([]byte, error) {
	o.Close()
	return o.B, o.Err
}

// Slice writes prefix and v as a JSON array, each element through elem
// (which writes its value with an empty prefix); a nil v is null, as
// encoding/json writes a nil slice.
func Slice[T any](o *Object, prefix string, v []T, elem func(*T, *Object)) {
	if v == nil {
		o.B = append(o.B, prefix...)
		o.B = append(o.B, "null"...)
		return
	}
	o.B = append(o.B, prefix...)
	o.B = append(o.B, '[')
	for i := range v {
		if i > 0 {
			o.B = append(o.B, ',')
		}
		elem(&v[i], o)
	}
	o.B = append(o.B, ']')
}

// SliceOmit is Slice under omitempty: an empty v writes nothing.
func SliceOmit[T any](o *Object, prefix string, v []T, elem func(*T, *Object)) {
	if len(v) > 0 {
		Slice(o, prefix, v, elem)
	}
}

// AppendFloat appends a finite x as encoding/json prints a float64: the
// shortest 'f' form, switching to 'e' below 1e-6 or at and above 1e21,
// with a two-digit negative exponent cleaned from e-07 to e-7.
func AppendFloat(b []byte, x float64) []byte {
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

// AppendString appends s as an HTML-escaping encoder quotes it. Plain
// printable ASCII without `"`, `\`, `<`, `>` or `&` is copied between
// quotes; anything else goes through json.Marshal.
func AppendString(b []byte, s string) []byte {
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

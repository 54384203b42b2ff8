package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"heb/internal/esd"
	"heb/internal/jsonenc"
)

// leafSource supplies the values fillState writes into a state's leaves.
type leafSource interface {
	float() float64
	int() int64
	uint() uint64
	bool() bool
	str() string
	// length is the length of a slice at the given nesting depth, or -1
	// for a nil slice.
	length(depth int) int
	// present reports whether a pointer at the given depth is set.
	present(depth int) bool
}

// fillState writes every leaf of v from src, allocating pointers and
// slices as src decides. A leaf kind it does not know panics, so a state
// type that grows one fails the tests until both are taught about it.
func fillState(v reflect.Value, src leafSource, depth int) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(src.float())
	case reflect.Int, reflect.Int64:
		v.SetInt(src.int())
	case reflect.Uint64:
		v.SetUint(src.uint())
	case reflect.Bool:
		v.SetBool(src.bool())
	case reflect.String:
		v.SetString(src.str())
	case reflect.Pointer:
		if src.present(depth) {
			p := reflect.New(v.Type().Elem())
			fillState(p.Elem(), src, depth+1)
			v.Set(p)
		}
	case reflect.Slice:
		if n := src.length(depth); n >= 0 {
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				fillState(s.Index(i), src, depth+1)
			}
			v.Set(s)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillState(v.Index(i), src, depth)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillState(v.Field(i), src, depth)
		}
	default:
		panic(fmt.Sprintf("fillState: unhandled kind %s (%s)", v.Kind(), v.Type()))
	}
}

// distinctSource gives every pointer and slice (two elements) down to
// depth 3 a value, and every leaf its own non-zero value, or the zero
// value when zero is set.
type distinctSource struct {
	n    int
	zero bool
}

func (d *distinctSource) next() int {
	if d.zero {
		return 0
	}
	d.n++
	return d.n
}

func (d *distinctSource) float() float64 {
	if d.zero {
		return 0
	}
	return float64(d.next()) + 0.25
}

func (d *distinctSource) int() int64   { return int64(d.next()) }
func (d *distinctSource) uint() uint64 { return uint64(d.next()) << 40 }
func (d *distinctSource) bool() bool   { return !d.zero }

func (d *distinctSource) str() string {
	if d.zero {
		return ""
	}
	return "s" + strconv.Itoa(d.next())
}

func (d *distinctSource) present(depth int) bool { return depth < 3 }
func (d *distinctSource) length(depth int) int {
	if depth < 3 {
		return 2
	}
	return -1
}

// appendState returns st's appender output after a prefix, checking the
// appender leaves the prefix alone.
func appendState(st *EngineState) ([]byte, error) {
	o := jsonenc.Object{B: []byte("prefix")}
	st.AppendJSON(&o)
	if !bytes.HasPrefix(o.B, []byte("prefix")) {
		return nil, fmt.Errorf("appender overwrote the buffer's prefix")
	}
	return o.B[len("prefix"):], o.Err
}

// TestEngineStateAppenderMatchesMarshal fills every leaf of an
// EngineState, down through each nested state, with a distinct non-zero
// value, and requires the hand-written appenders to write json.Marshal's
// bytes. The same shape with zero leaves checks each nested state's
// omitempty fields, and the zero state the nil forms. A field added to
// any nested state without its appender fails here.
func TestEngineStateAppenderMatchesMarshal(t *testing.T) {
	var full, zeroLeaves EngineState
	fillState(reflect.ValueOf(&full).Elem(), &distinctSource{}, 0)
	fillState(reflect.ValueOf(&zeroLeaves).Elem(), &distinctSource{zero: true}, 0)
	if full.Supercap == nil || full.Feed == nil || full.Controller.PAT == nil ||
		len(full.Battery.Members) == 0 || full.Controller.PeakPredictor.HoltWinters == nil {
		t.Fatal("the filled state leaves an optional part out")
	}
	// A uniform pool's members share member 0's state, which the
	// appender copies as bytes. Runs of shared members sit next to
	// members that differ from their predecessor only in kind, only in
	// their state pointer or only in their nested members.
	shared := full
	leaf, nested := full.Battery.Members[0], full.Battery.Members[1]
	leaf.Members = nil
	other, twin, renested := leaf, leaf, nested
	other.Kind = "other"
	twinState := *leaf.Battery
	twinState.Q1++
	twin.Battery = &twinState
	renested.Members = []esd.DeviceState{leaf}
	shared.Battery.Members = []esd.DeviceState{leaf, leaf, twin, other, other, nested, nested, renested, leaf}
	sc := *full.Supercap
	sc.Members = []esd.DeviceState{leaf, leaf, leaf}
	shared.Supercap = &sc
	for name, st := range map[string]*EngineState{"full": &full, "zero leaves": &zeroLeaves, "zero": {}, "shared members": &shared} {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendState(st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: appender differs from json.Marshal:\n got  %s\n want %s", name, got, want)
		}
	}
}

// byteSource reads leaf values from fuzz bytes; an exhausted source
// gives zeros, nil slices and nil pointers.
type byteSource struct{ b []byte }

func (s *byteSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) word() uint64 {
	var w [8]byte
	s.b = s.b[copy(w[:], s.b):]
	return binary.LittleEndian.Uint64(w[:])
}

// specialFloats are encoding/json's edge cases: signed zeros, the
// subnormal and normal extremes, both sides of the 'f'/'e' switches at
// 1e-6 and 1e21, and the values Marshal refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-7, -1e-7, 9.99e-7, 1e-6, 9.99e20, 1e21, -1e21, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func (s *byteSource) float() float64 {
	if c := s.byte(); int(c) < len(specialFloats) {
		return specialFloats[c]
	}
	return math.Float64frombits(s.word())
}

func (s *byteSource) int() int64 {
	if c := s.byte(); c&1 == 0 {
		return int64(int8(c)) >> 1
	}
	return int64(s.word())
}

func (s *byteSource) uint() uint64 { return s.word() }
func (s *byteSource) bool() bool   { return s.byte()&1 == 1 }

var fuzzStrings = []string{"", "battery", "supercap", "null", "pool", "naive", "holt-winters", "oracle", "<&>", "é\x00\"\\"}

func (s *byteSource) str() string { return fuzzStrings[int(s.byte())%len(fuzzStrings)] }

func (s *byteSource) present(depth int) bool { return depth < 3 && s.byte()&1 == 1 }

func (s *byteSource) length(depth int) int {
	if depth >= 3 {
		return -1
	}
	return int(s.byte()%5) - 1 // nil, empty, 1..3 elements
}

// shareMembers makes pool member i share member i-1's state, as a
// uniform pool's members share member 0's, wherever the next bit of
// share is set, walking d's pools depth first.
func shareMembers(d *esd.DeviceState, share *uint64) {
	for i := range d.Members {
		shareMembers(&d.Members[i], share)
		if i > 0 && *share&1 == 1 {
			d.Members[i] = d.Members[i-1]
		}
		*share >>= 1
	}
}

// FuzzEngineStateMatchesMarshal builds an EngineState from the fuzz
// bytes (pools of any size down to three levels, nil or set supercap,
// feed, PAT and predictor variants, nil and empty slices, capped servers,
// and floats drawn from encoding/json's edge cases or raw bits), lets
// the bits of share make pool members share their predecessor's state,
// and requires the appenders to write json.Marshal's bytes, failing
// exactly when Marshal fails.
func FuzzEngineStateMatchesMarshal(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	for i := range specialFloats {
		f.Add(bytes.Repeat([]byte{byte(i)}, 96), uint64(0))
	}
	f.Add(bytes.Repeat([]byte{0xff}, 512), uint64(0))
	f.Add(bytes.Repeat([]byte{3, 1, 7, 0x80, 2}, 200), uint64(0))
	// Uniform pools: every member shares its predecessor's state, and
	// these bytes make six of them battery or supercap leaves, whose
	// bytes the appender copies.
	f.Add(bytes.Repeat([]byte{9, 1, 9, 4}, 100), ^uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, share uint64) {
		var st EngineState
		fillState(reflect.ValueOf(&st).Elem(), &byteSource{b: raw}, 0)
		shareMembers(&st.Battery, &share)
		if st.Supercap != nil {
			shareMembers(st.Supercap, &share)
		}
		want, werr := json.Marshal(&st)
		got, gerr := appendState(&st)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("appender error %v, json.Marshal error %v", gerr, werr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("appender differs from json.Marshal:\n got  %s\n want %s", got, want)
		}
	})
}

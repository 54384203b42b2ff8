package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// fuzzRecords puts the fuzzed values into every field of the four
// appender record types, with x and y alternating over the float fields;
// one checkpoint carries a json.Marshal state and one a nil state.
func fuzzRecords(x, y float64, n int64, s1, s2 string, b bool) []jsonAppender {
	state, err := json.Marshal(map[string]any{s1: s2, "n": n, "b": b})
	if err != nil {
		panic(err)
	}
	return []jsonAppender{
		&Event{Seconds: x, Kind: EventKind(n), Server: int(n), From: s1, To: s2, Watts: y, Detail: s2, Run: s1},
		&DecisionRecord{
			Slot: int(n), Seconds: x, Scheme: s1,
			SCFrac: y, BAFrac: x, SCAvailWh: y, BAAvailWh: x, BudgetW: y,
			PredictedPeakW: x, PredictedValleyW: y, PredictedPMW: x, PredictedOverW: y,
			SmallPeak: b, Mode: s2, Ratio: x, PATLookups: int(n), PATMisses: int(-n),
			Completed: !b, ActualPeakW: y, ActualValleyW: x, ActualPMW: y, ActualOverW: x,
			SCFracEnd: y, BAFracEnd: x, RatioUsed: y, Run: s2,
		},
		&ProbeSample{Seconds: x, Device: s1, SoC: y, VoltageV: x, PowerW: y,
			AvailAh: x, BoundAh: y, ThroughputAh: x, Run: s2},
		&CheckpointRecord{V: int(n), Run: s1, Slot: int(-n), Step: int(n), Seconds: y,
			State: state, Delta: b, Prev: s2, Hash: s1},
		&CheckpointRecord{V: int(n), Seconds: x, Hash: s2},
	}
}

// FuzzJSONLMatchesEncoder holds every record appender to json.Encoder:
// the appended bytes plus a newline equal what Encode writes, and a
// record Encode refuses (a NaN or infinite float) makes the appender
// fail too. The seeds cover the float form's switch points (-0, 1e-7,
// 9.99e-7, 1e-6, 9.99e20, 1e21, the smallest subnormal), each escaped
// ASCII character alone, control bytes, invalid UTF-8, U+2028 and
// records with every omitempty field zero.
func FuzzJSONLMatchesEncoder(f *testing.F) {
	f.Add(0.0, 0.0, int64(0), "", "", false)
	f.Add(math.Copysign(0, -1), 1e-7, int64(1), "battery/0", "HEB-D|PR|2h0m0s|seed=1", true)
	f.Add(9.99e-7, 1e21, int64(-1), "<", "\x00\x1f\t\n", false)
	f.Add(5e-324, -1e-7, int64(math.MaxInt64), "\xff\xfe", "a b ", true)
	f.Add(9.99e20, 1e-6, int64(math.MinInt64), `"`, "\u2028\u2029é", false)
	f.Add(123456.789, 0.5, int64(42), "&", `\`, false)
	f.Add(-2.5, 3e-3, int64(7), ">", "\x7f", true)
	f.Add(2.0, -7.25, int64(9), "<>&", "a\"b\\c\x01", false)
	f.Add(math.NaN(), 1.0, int64(255), "x", "y", true)
	f.Add(1.0, math.Inf(1), int64(3600), "split", "sc_first", false)
	f.Add(math.Inf(-1), 0.5, int64(7), "", "ok", true)
	f.Fuzz(func(t *testing.T, x, y float64, n int64, s1, s2 string, b bool) {
		if len(s1)+len(s2) > 256 {
			// Escaping is decided byte by byte; long strings only slow
			// the minimizer down.
			t.Skip()
		}
		for _, rec := range fuzzRecords(x, y, n, s1, s2, b) {
			var want bytes.Buffer
			werr := json.NewEncoder(&want).Encode(rec)
			got, gerr := rec.appendJSON([]byte("prefix"))
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%T: appender error %v, encoder error %v", rec, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if g, w := string(got)+"\n", "prefix"+want.String(); g != w {
				t.Fatalf("%T: appender differs from the encoder:\n got  %q\n want %q", rec, g, w)
			}
		}
	})
}

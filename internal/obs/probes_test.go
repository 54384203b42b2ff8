package obs

import (
	"bytes"
	"testing"
)

func TestProbeRecorderPowerDerivative(t *testing.T) {
	r := NewProbeRecorder(0)
	b := r.AddDevice("battery/0", 3)
	r.Record(b, 0, 0.5, 24, 1, 1, 0, 0)
	r.Record(b, 60, 0.49, 23.9, 0.9, 1, 0.1, 2) // +2 Wh net out over 60 s
	r.Record(b, 120, 0.5, 24, 1, 1, 0.1, 1)     // −1 Wh (charged) over 60 s

	s := r.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	if s[0].PowerW != 0 {
		t.Errorf("first sample power %g, want 0 (unprimed)", s[0].PowerW)
	}
	// 2 Wh over 60 s = 120 W discharging.
	if got := s[1].PowerW; got != 120 {
		t.Errorf("discharge power %g, want 120", got)
	}
	// −1 Wh over 60 s = −60 W (charging).
	if got := s[2].PowerW; got != -60 {
		t.Errorf("charge power %g, want -60", got)
	}
}

func TestProbeRingWrapKeepsNewest(t *testing.T) {
	r := NewProbeRecorder(4)
	sc := r.AddDevice("sc/0", 7)
	for i := 0; i < 7; i++ {
		r.Record(sc, float64(i), 0.5, 12, 1, 0, 0, 0)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	s := r.Samples()
	if len(s) != 4 {
		t.Fatalf("retained %d samples, want 4", len(s))
	}
	for i, want := range []float64{3, 4, 5, 6} {
		if s[i].Seconds != want {
			t.Errorf("sample %d at t=%g, want %g", i, s[i].Seconds, want)
		}
	}
}

// TestProbeSamplesConcatenateRings holds Samples to each device ring's
// Last(0) concatenated in registration order, for rings that never
// wrapped, rings that wrapped, and rings sized for the run through
// Expect, which must hold every sample without regrowing.
func TestProbeSamplesConcatenateRings(t *testing.T) {
	for _, tc := range []struct {
		name            string
		ringCap, expect int
		samples         int
	}{
		{"unwrapped", 0, 0, 7},
		{"wrapped", 5, 0, 12},
		{"wrapped and sized", 5, 13, 12},
		{"sized for the run", 0, 13, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewProbeRecorder(tc.ringCap)
			// Three devices, registered out of name order, with their
			// sample counts staggered.
			for _, dev := range []string{"sc/0", "battery/1", "battery/0"} {
				r.AddDevice(dev, tc.expect)
			}
			for i := range tc.samples {
				for d := range r.rings {
					if i >= d {
						r.Record(d, float64(i), 0.5, 12, float64(d), 0, float64(i), 0)
					}
				}
			}
			var want []ProbeSample
			for _, ring := range r.rings {
				want = append(want, ring.samples.Last(0)...)
				if tc.expect > 0 && cap(ring.samples.buf) != min(tc.expect, r.ringCap) {
					t.Errorf("%s: ring storage %d, want %d", ring.device, cap(ring.samples.buf), min(tc.expect, r.ringCap))
				}
			}
			got := r.Samples()
			if len(got) != len(want) || len(got) != cap(got) {
				t.Fatalf("%d samples in %d of storage, want %d", len(got), cap(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestProbeDevicesPreserveRegistrationOrder(t *testing.T) {
	r := NewProbeRecorder(0)
	for _, d := range []string{"battery/1", "battery/0", "sc/0"} {
		r.Record(r.AddDevice(d, 1), 0, 0.5, 12, 1, 0, 0, 0)
	}
	all := r.Samples()
	var got []string
	for _, s := range all {
		got = append(got, s.Device)
	}
	want := []string{"battery/1", "battery/0", "sc/0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("devices %v, want %v", got, want)
		}
	}
	// Samples interleave by device in the same registration order.
	if len(all) != 3 || all[0].Device != "battery/1" || all[2].Device != "sc/0" {
		t.Errorf("merged samples out of order: %+v", all)
	}
}

func TestProbesJSONLRoundTrip(t *testing.T) {
	r := NewProbeRecorder(0)
	b := r.AddDevice("battery/0", 2)
	r.Record(b, 0, 0.55, 24.7, 0.49, 0.91, 0, 0)
	r.Record(b, 60, 0.553, 24.71, 0.5, 0.91, 0.01, -0.14)
	in := r.Samples()
	in[0].Run = "test-run"

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL[ProbeSample](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip lost samples: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("sample %d changed in round-trip:\n%+v\n%+v", i, in[i], out[i])
		}
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"heb/internal/forecast"
	"heb/internal/obs"
	"heb/internal/pat"
	"heb/internal/units"
)

// TestCheckpointStateOmitsTraceTap checks the controller snapshot for a
// HEB-D controller with a populated PAT, warmed predictors and
// sensor-noise draws, and for a table-less scheme: the PAT travels as a
// digest, and the attached trace tap's pending record stays out.
func TestCheckpointStateOmitsTraceTap(t *testing.T) {
	cfg := testConfig()
	cfg.SensorNoise = 0.05
	cfg.NoiseSeed = 7
	cfg.Trace = func(obs.DecisionRecord) {}
	table := pat.MustNew(pat.DefaultConfig())
	for name, scheme := range map[string]Scheme{"HEB-D": NewHEBD(table), "SCFirst": NewSCFirst()} {
		c := MustNewController(cfg, scheme)
		for i := 0; i < 6; i++ {
			sc := units.WattHours(20 + 10*float64(i))
			c.PlanSlot(sc, units.WattHours(100), units.WattHours(80), units.WattHours(160))
			peak := units.Power(300 + 25*i)
			c.FinishSlot(SlotResult{
				ActualPeak: peak, ActualValley: 200, ActualPM: peak - 200, ActualOver: peak - cfg.Budget,
				SCFracEnd: 0.1 * float64(i%3), BAFracEnd: 0.4, RatioUsed: 0.3,
			})
		}
		c.PlanSlot(units.WattHours(50), units.WattHours(100), units.WattHours(80), units.WattHours(160))

		st, err := c.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if (name == "HEB-D") != (st.PAT != nil && st.PAT.Entries.Len > 0) {
			t.Fatalf("%s: PAT state %+v", name, st.PAT)
		}
		if st.NoiseDraws == 0 {
			t.Fatalf("%s: noise draws missing from the state", name)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"pending"`)) {
			t.Fatalf("%s: the trace tap's pending record leaked into the state", name)
		}
	}
}

// driveStates runs c through six slots and returns its checkpoint as
// JSON before and after them.
func driveStates(t *testing.T, c *Controller) []byte {
	t.Helper()
	var out []byte
	snap := func() {
		st, err := c.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, raw...), '\n')
	}
	snap()
	for i := 0; i < 6; i++ {
		c.PlanSlot(units.WattHours(20+10*float64(i)), units.WattHours(100), units.WattHours(80), units.WattHours(160))
		peak := units.Power(300 + 25*i)
		c.FinishSlot(SlotResult{
			ActualPeak: peak, ActualValley: 200, ActualPM: peak - 200, ActualOver: peak - c.cfg.Budget,
			SCFracEnd: 0.1 * float64(i%3), BAFracEnd: 0.4, RatioUsed: 0.3,
		})
	}
	snap()
	return out
}

// TestResetMatchesNewController checks that Reset leaves nothing of the
// previous run behind: a HEB-D controller reset after a noisy run, or
// after a run on injected predictors, must checkpoint as one from
// NewController does, before and after driving the same slots.
func TestResetMatchesNewController(t *testing.T) {
	noisy := func(seed int64) func() Config {
		return func() Config {
			cfg := testConfig()
			cfg.SensorNoise, cfg.NoiseSeed = 0.05, seed
			return cfg
		}
	}
	injected := func() Config {
		cfg := testConfig()
		cfg.PeakPredictor, cfg.ValleyPredictor = forecast.NewNaive(), forecast.NewNaive()
		return cfg
	}
	hebD := func() Scheme { return NewHEBD(pat.MustNew(pat.DefaultConfig())) }
	for _, tc := range []struct {
		name        string
		dirty, next func() Config
	}{
		{"noisy then reseeded", noisy(7), noisy(11)},
		{"noisy then exact", noisy(7), testConfig},
		{"injected then defaults", injected, noisy(7)},
		{"defaults then injected", noisy(7), injected},
	} {
		c := MustNewController(tc.dirty(), hebD())
		driveStates(t, c)
		if err := c.Reset(tc.next(), hebD()); err != nil {
			t.Fatal(err)
		}
		got := driveStates(t, c)
		if want := driveStates(t, MustNewController(tc.next(), hebD())); !bytes.Equal(got, want) {
			t.Errorf("%s: reset controller states\n%s\nwant NewController's\n%s", tc.name, got, want)
		}
	}
}

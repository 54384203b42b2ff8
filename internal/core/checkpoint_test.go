package core

import (
	"bytes"
	"encoding/json"
	"testing"

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

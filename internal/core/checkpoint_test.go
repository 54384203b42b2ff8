package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"heb/internal/obs"
	"heb/internal/pat"
	"heb/internal/units"
)

// TestAppendCheckpointJSONMatchesMarshal pins the stitched encoder the
// engine writes keyframes with to its reference: AppendCheckpointJSON
// must produce exactly json.Marshal(Checkpoint()), both for a HEB-D
// controller with a populated PAT, warmed predictors, a pending trace
// record and sensor-noise draws, and for a table-less scheme.
func TestAppendCheckpointJSONMatchesMarshal(t *testing.T) {
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
		if name == "HEB-D" && (st.PAT == nil || len(st.PAT.Entries) == 0) {
			t.Fatalf("%s: PAT not populated; the test would not cover the table encoder", name)
		}
		if st.Pending == nil || st.NoiseDraws == 0 {
			t.Fatalf("%s: pending record or noise draws missing from the state", name)
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.AppendCheckpointJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendCheckpointJSON differs from json.Marshal(Checkpoint()):\n got %s\nwant %s", name, got, want)
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"heb/internal/obs/alerts"
)

// TestJSONLCodec drives every artifact record type through the shared
// codec: a round trip, blank lines between records, a truncated last
// record and trailing garbage, each failure naming the record's index.
func TestJSONLCodec(t *testing.T) {
	ckpts := NewCheckpointLog()
	ckpts.Append(1, 600, 600, json.RawMessage(`{"steps":600}`))
	ckpts.Append(2, 1200, 1200, json.RawMessage(`{"steps":1200}`))
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"events", func(t *testing.T) {
			checkCodec(t, []Event{
				{Seconds: 0, Kind: EventRunStart, Server: -1, Detail: "HEB-D"},
				{Seconds: 12, Kind: EventHandoff, Server: 4, From: "battery", To: "supercap"},
				{Seconds: 30, Kind: EventMismatchBegin, Server: -1, Watts: 812.5, Run: "r1"},
			})
		}},
		{"decisions", func(t *testing.T) {
			checkCodec(t, []DecisionRecord{sampleRecord(1, "supercap-first", 1), sampleRecord(2, "split", 0.62)})
		}},
		{"probes", func(t *testing.T) {
			checkCodec(t, []ProbeSample{
				{Seconds: 0, Device: "battery/0", SoC: 0.55, VoltageV: 24.7, AvailAh: 0.49, BoundAh: 0.91},
				{Seconds: 60, Device: "battery/0", SoC: 0.553, VoltageV: 24.71, PowerW: -8.4, ThroughputAh: 0.01, Run: "r1"},
			})
		}},
		{"audits", func(t *testing.T) {
			checkCodec(t, []AuditReport{
				{Mode: "report", Steps: 3600, EnergyInWh: 10, EnergyOutWh: 10, Tolerance: 1e-6, Passed: true, Run: "a"},
				{Mode: "strict", Steps: 60, Violations: 1, Run: "b",
					Events:  []AuditEvent{{Seconds: 1, Kind: alerts.KindVoltageBound, Device: "battery/0", Value: 30, Limit: 28.8}},
					Devices: []DeviceResidual{{Device: "battery/0", InWh: 5, OutWh: 3, LossWh: 1, DeltaWh: 1}}},
			})
		}},
		{"checkpoints", func(t *testing.T) { checkCodec(t, ckpts.Records()) }},
		{"alerts", func(t *testing.T) {
			checkCodec(t, []alerts.Event{
				{Seconds: 1, Kind: alerts.KindSoCFloor, Severity: alerts.SeverityCritical, Device: "battery/0", Value: 0.01, Limit: 0.05},
				{Seconds: 2, Kind: alerts.KindRampRate, Severity: alerts.SeverityWarn, Value: 900, Limit: 250, Run: "r2"},
			})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// checkCodec runs the codec cases over recs, which must hold at least two
// records.
func checkCodec[T any](t *testing.T, recs []T) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if n := strings.Count(raw, "\n"); n != len(recs) {
		t.Fatalf("wrote %d lines for %d records:\n%s", n, len(recs), raw)
	}
	lastStart := strings.LastIndex(raw[:len(raw)-1], "\n") + 1
	n := len(recs)
	for _, c := range []struct {
		name  string
		in    string
		want  []T
		errAt int // index the error must name; -1 for no error
	}{
		{"round_trip", raw, recs, -1},
		{"blank_lines", "\n" + strings.ReplaceAll(raw, "\n", "\n\n"), recs, -1},
		{"truncated_last", raw[:lastStart+(len(raw)-lastStart)/2], recs[:n-1], n - 1},
		{"trailing_garbage", raw + "garbage\n", recs, n},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := ReadJSONL[T](strings.NewReader(c.in))
			if (err != nil) != (c.errAt >= 0) {
				t.Fatalf("err = %v, want an error naming record %d", err, c.errAt)
			}
			if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("record %d:", c.errAt)) {
				t.Errorf("error %q does not name record %d", err, c.errAt)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("read %+v\nwant %+v", got, c.want)
			}
		})
	}
}

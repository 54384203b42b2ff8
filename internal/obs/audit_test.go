package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"heb/internal/obs/alerts"
)

// TestParseAuditModeRoundTrip checks the audit mode names are the shared
// checker modes, so -audit parses exactly like -alerts.
func TestParseAuditModeRoundTrip(t *testing.T) {
	for _, m := range []alerts.Mode{AuditModeOff, AuditModeReport, AuditModeStrict} {
		got, err := alerts.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := alerts.ParseMode("bogus"); err == nil {
		t.Error("accepted bogus mode")
	}
}

func TestNilAuditorIsSafeAndOff(t *testing.T) {
	a := NewAuditor(AuditModeOff)
	if a != nil {
		t.Fatal("off auditor should be nil")
	}
	if a.Strict() || a.Violated() {
		t.Error("nil auditor misreports state")
	}
	r := a.Report()
	if !r.Passed || r.Mode != "off" {
		t.Errorf("nil auditor report %+v", r)
	}
}

func TestRecordStepFlagsDriftAboveTolerance(t *testing.T) {
	a := NewAuditor(AuditModeReport)
	a.RecordStep(0, 100, 100)      // balanced
	a.RecordStep(1, 100, 100+5e-5) // relative 5e-7 < tol: fine
	a.RecordStep(2, 1e-12, 3e-12)  // relative 2/3 but absolute 2e-12 < 1e-9 floor: fine
	if a.Violated() {
		t.Fatal("tolerable steps flagged")
	}
	a.RecordStep(3, 100, 101) // 1% drift
	if !a.Violated() {
		t.Fatal("1% drift not flagged")
	}
	r := a.Report()
	if r.Violations != 1 || len(r.Events) != 1 {
		t.Fatalf("violations %d events %d, want 1/1", r.Violations, len(r.Events))
	}
	e := r.Events[0]
	if e.Kind != alerts.KindLedgerDrift || e.Seconds != 3 || math.Abs(e.Value-1) > 1e-9 {
		t.Errorf("drift event %+v", e)
	}
	if r.Passed {
		t.Error("report passed despite violation")
	}
}

func TestAuditEventCapCountsOverflow(t *testing.T) {
	a := NewAuditor(AuditModeReport)
	for i := 0; i < auditEventCap+10; i++ {
		a.Flag(AuditEvent{Seconds: float64(i), Kind: alerts.KindSoCBound})
	}
	r := a.Report()
	if len(r.Events) != auditEventCap {
		t.Errorf("stored %d events, want cap %d", len(r.Events), auditEventCap)
	}
	if r.Violations != int64(auditEventCap+10) {
		t.Errorf("violations %d, want %d", r.Violations, auditEventCap+10)
	}
}

func TestDeviceResidualMath(t *testing.T) {
	a := NewAuditor(AuditModeReport)
	a.StartDevice("battery/0", 10, 5, 1, 50)
	a.EndDevice(0, 22, 11, 2, 54)
	r := a.Report()
	if len(r.Devices) != 1 {
		t.Fatalf("devices %d, want 1", len(r.Devices))
	}
	d := r.Devices[0]
	// In 12, Out 6, Loss 1, ΔStored 4 → residual 1.
	if d.InWh != 12 || d.OutWh != 6 || d.LossWh != 1 || d.DeltaWh != 4 {
		t.Errorf("deltas %+v", d)
	}
	if math.Abs(d.ResidualWh-1) > 1e-12 {
		t.Errorf("residual %g, want 1", d.ResidualWh)
	}
}

func TestReportFailsOnAccumulatedDrift(t *testing.T) {
	a := NewAuditor(AuditModeReport)
	// Each step's mismatch hides under the absolute floor, so no per-step
	// flag fires, but against tiny run totals the accumulation blows the
	// relative budget.
	for i := 0; i < 1000; i++ {
		a.RecordStep(float64(i), 1e-8, 1e-8+9e-10)
	}
	r := a.Report()
	if a.Violated() {
		t.Fatal("per-step flags fired; the test wants accumulation only")
	}
	if r.Passed {
		t.Errorf("report passed with rel drift %g over tolerance %g", r.RelDrift, r.Tolerance)
	}
}

func TestStrictModeReported(t *testing.T) {
	if !NewAuditor(AuditModeStrict).Strict() {
		t.Error("strict auditor not strict")
	}
	if NewAuditor(AuditModeReport).Strict() {
		t.Error("report auditor claims strict")
	}
}

func TestAuditLogSortsByRunAndFiltersFailed(t *testing.T) {
	l := NewAuditLog()
	l.Add("zzz", AuditReport{Passed: true})
	l.Add("aaa", AuditReport{Passed: false})
	l.Add("mmm", AuditReport{Passed: true})
	rs := l.Reports()
	if len(rs) != 3 || rs[0].Run != "aaa" || rs[2].Run != "zzz" {
		t.Errorf("reports out of order: %+v", rs)
	}
	failed := l.Unhealthy()
	if len(failed) != 1 || failed[0].Run != "aaa" {
		t.Errorf("failed filter wrong: %+v", failed)
	}
}

func TestAuditsJSONLRoundTrip(t *testing.T) {
	a := NewAuditor(AuditModeStrict)
	a.RecordStep(0, 10, 10)
	a.Flag(AuditEvent{Seconds: 1, Kind: alerts.KindVoltageBound, Device: "battery/0", Value: 30, Limit: 28.8, Detail: "over"})
	a.StartDevice("battery/0", 0, 0, 0, 10)
	a.EndDevice(0, 5, 3, 1, 11)
	in := []AuditReport{a.Report()}
	in[0].Run = "r1"

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"voltage_bound"`) {
		t.Errorf("kind not serialized as name: %s", buf.String())
	}
	out, err := ReadJSONL[AuditReport](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("round-trip lost reports: %d", len(out))
	}
	got, want := out[0], in[0]
	if got.Run != want.Run || got.Mode != want.Mode || got.Violations != want.Violations ||
		got.DriftWh != want.DriftWh || len(got.Events) != len(want.Events) ||
		len(got.Devices) != len(want.Devices) || got.Events[0] != want.Events[0] ||
		got.Devices[0] != want.Devices[0] {
		t.Errorf("report changed in round-trip:\n%+v\n%+v", want, got)
	}
}

// TestAuditKindJSONRejectsUnknown decodes audit events through the shared
// kind taxonomy: audit-only and shared kinds parse, unknown ones fail.
func TestAuditKindJSONRejectsUnknown(t *testing.T) {
	var e AuditEvent
	if err := json.Unmarshal([]byte(`{"kind":"not_a_kind"}`), &e); err == nil {
		t.Error("accepted unknown kind")
	}
	for _, k := range []alerts.Kind{alerts.KindRelayExclusivity, alerts.KindLedgerDrift, alerts.KindChargeBound} {
		raw := fmt.Sprintf(`{"kind":%q}`, k)
		if err := json.Unmarshal([]byte(raw), &e); err != nil || e.Kind != k {
			t.Errorf("known kind %s rejected: %v %v", k, e.Kind, err)
		}
	}
}

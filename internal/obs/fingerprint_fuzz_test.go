package obs

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"heb/internal/obs/alerts"
)

// referenceFingerprint is the fingerprint's bytes as first written, with
// fmt. RunIDs and the capture's output order hash these bytes, so the
// streamed strconv version must hash exactly them.
func referenceFingerprint(a RunArtifact) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d|%d|%d|%d", a.Steps, a.MismatchSteps, a.Slots, len(a.Events), len(a.Decisions))
	for _, e := range a.Events {
		fmt.Fprintf(&sb, "|%g:%d:%d:%s:%s:%g", e.Seconds, e.Kind, e.Server, e.From, e.To, e.Watts)
	}
	for _, d := range a.Decisions {
		fmt.Fprintf(&sb, "|%d:%s:%g:%v:%g:%g:%g:%g:%d",
			d.Slot, d.Mode, d.Ratio, d.SmallPeak,
			d.PredictedPeakW, d.ActualPeakW, d.SCFrac, d.BAFrac, d.PATLookups)
	}
	fmt.Fprintf(&sb, "|probes=%d,%d", len(a.Probes), a.ProbesDropped)
	for _, s := range a.Probes {
		fmt.Fprintf(&sb, "|%g:%s:%g:%g:%g:%g:%g:%g", s.Seconds, s.Device, s.SoC, s.VoltageV, s.PowerW, s.AvailAh, s.BoundAh, s.ThroughputAh)
	}
	if a.Audit != nil {
		fmt.Fprintf(&sb, "|audit=%s:%d:%g:%g:%d:%v", a.Audit.Mode, a.Audit.Steps,
			a.Audit.DriftWh, a.Audit.RelDrift, a.Audit.Violations, a.Audit.Passed)
	}
	fmt.Fprintf(&sb, "|ckpts=%d", len(a.Checkpoints))
	for _, r := range a.Checkpoints {
		fmt.Fprintf(&sb, "|%s", r.Hash)
	}
	if a.Alerts != nil {
		fmt.Fprintf(&sb, "|alerts=%s:%d:%d:%d:%s", a.Alerts.Mode,
			a.Alerts.Events, a.Alerts.Warnings, a.Alerts.Criticals, a.Alerts.Health)
	}
	for _, e := range a.AlertEvents {
		fmt.Fprintf(&sb, "|%g:%s:%s:%s:%g:%g", e.Seconds, e.Kind, e.Severity, e.Device, e.Value, e.Limit)
	}
	for _, k := range sortedMetricKeys(a.Metrics) {
		fmt.Fprintf(&sb, "|%s=%g", k, a.Metrics[k])
	}
	return sb.String()
}

// fuzzArtifact puts the fuzzed values into every field the fingerprint
// prints, with x and y alternating over the float fields.
func fuzzArtifact(x, y float64, n int64, s1, s2 string, b bool) RunArtifact {
	return RunArtifact{
		Key:           s1,
		Steps:         n,
		MismatchSteps: -n,
		Slots:         n / 7,
		Events: []Event{
			{Seconds: x, Kind: EventKind(n), Server: int(n), From: s1, To: s2, Watts: y},
			{Seconds: y, Kind: EventKind(n >> 8), Server: -1, Watts: x},
		},
		Decisions: []DecisionRecord{{
			Slot: int(n), Mode: s2, Ratio: x, SmallPeak: b,
			PredictedPeakW: y, ActualPeakW: x, SCFrac: y, BAFrac: x, PATLookups: int(-n),
		}},
		Probes: []ProbeSample{{
			Seconds: x, Device: s1, SoC: y, VoltageV: x, PowerW: y,
			AvailAh: x, BoundAh: y, ThroughputAh: x,
		}},
		ProbesDropped: n,
		Audit: &AuditReport{Mode: s2, Steps: n, DriftWh: x, RelDrift: y,
			Violations: -n, Passed: !b},
		Checkpoints: []CheckpointRecord{{Hash: s1}, {Hash: s2}},
		Alerts: &alerts.Report{Mode: s1, Events: int(n), Warnings: int(n % 5),
			Criticals: int(-n), Health: s2},
		AlertEvents: []alerts.Event{{
			Seconds: y, Kind: alerts.Kind(n), Severity: alerts.Severity(n >> 4),
			Device: s2, Value: x, Limit: y,
		}},
		Metrics: map[string]float64{s1: x, s2 + "_b": y},
	}
}

// checkDigests fails t unless fingerprinting a gives the SHA-256 sums of
// its reference bytes, alone and behind its key and a NUL (RunID).
func checkDigests(t *testing.T, f fingerprint, a RunArtifact) {
	t.Helper()
	var got runDigests
	f.sum(&a, &got)
	ref := referenceFingerprint(a)
	if want := sha256.Sum256([]byte(ref)); got.content != want {
		t.Fatalf("content digest differs from the fmt reference's (%d bytes): %q", len(ref), ref)
	}
	if want := RunID(a.Key, ref); fmt.Sprintf("%x", got.id[:6]) != want {
		t.Fatalf("run id %x, want RunID %s (%d reference bytes)", got.id[:6], want, len(ref))
	}
}

// FuzzFingerprintMatchesReference holds the streamed fingerprint to the
// fmt reference's digests, over the float corner cases (NaN, ±Inf, -0,
// subnormals, exponent forms), empty and non-UTF-8 strings, negative
// counts and out-of-range enum values.
func FuzzFingerprintMatchesReference(f *testing.F) {
	f.Add(0.0, 1.0, int64(0), "", "", false)
	f.Add(math.NaN(), math.Inf(1), int64(-1), "battery/0", "", true)
	f.Add(math.Inf(-1), math.Copysign(0, -1), int64(math.MaxInt64), "", "split", false)
	f.Add(1e21, 1e-7, int64(math.MinInt64), "a|b:c", "\xff\xfe", true)
	f.Add(5e-324, math.MaxFloat64, int64(255), "HEB-D/PR", "ok", false)
	f.Add(123456.789, -0.000123, int64(3600), "x", "y", true)
	fp := newFingerprint()
	f.Fuzz(func(t *testing.T, x, y float64, n int64, s1, s2 string, b bool) {
		checkDigests(t, fp, fuzzArtifact(x, y, n, s1, s2, b))
		var empty RunArtifact
		empty.Steps = n
		checkDigests(t, fp, empty)
	})
}

// TestFingerprintCrossesFlushes checks an artifact whose fingerprint is
// many buffers long, with a key longer than one buffer.
func TestFingerprintCrossesFlushes(t *testing.T) {
	a := fuzzArtifact(math.Pi, -1e-300, 7, strings.Repeat("k", 1<<10+3), "ok", true)
	for i := 0; i < 2000; i++ {
		x := float64(i) / 3
		a.Events = append(a.Events, Event{Seconds: x, Kind: EventKind(i % 5), Server: i, From: "battery", To: "utility", Watts: -x})
		a.Decisions = append(a.Decisions, DecisionRecord{Slot: i, Mode: "split", Ratio: x, PredictedPeakW: 1 / x, ActualPeakW: x * x})
	}
	if n := len(referenceFingerprint(a)); n < 64<<10 {
		t.Fatalf("reference fingerprint is %d bytes, want at least 64 KiB", n)
	}
	checkDigests(t, newFingerprint(), a)
}

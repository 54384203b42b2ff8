package heb

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current code")

// goldenArtifacts are the capture files the invariant checker shapes. The
// manifest inventories every other artifact by SHA-256, so events.jsonl
// (where fired alerts are bridged as EventAlert) is pinned through it.
var goldenArtifacts = []string{"audits.jsonl", "alerts.jsonl", "manifest.json", "metrics.prom"}

// TestCheckerArtifactsGolden pins the auditor and alert-engine artifacts
// of three 2 h HEB-D runs on PR byte for byte: a clean run, a
// fault-injected SoC-floor breach, and the same breach under strict
// alerting, which aborts the run. Regenerate with
// go test -run TestCheckerArtifactsGolden -update-golden.
func TestCheckerArtifactsGolden(t *testing.T) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	const d = 2 * time.Hour
	for _, tc := range []struct {
		name   string
		alert  alerts.Mode
		rules  alerts.Rules
		strict bool
	}{
		{name: "clean", alert: alerts.ModeReport},
		{name: "breach", alert: alerts.ModeReport, rules: alerts.Rules{SoCFloor: 0.99}},
		{name: "breach_strict", alert: alerts.ModeStrict, rules: alerts.Rules{SoCFloor: 0.99}, strict: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultPrototype()
			p.Capture = obs.NewCapture()
			p.Capture.SetLabel("golden")
			p.Audit = obs.AuditModeReport
			p.Alert = tc.alert
			p.AlertRules = tc.rules
			_, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{Duration: d})
			if (err != nil) != tc.strict {
				t.Fatalf("run error %v, want error=%v", err, tc.strict)
			}
			dir := t.TempDir()
			if err := p.Capture.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			for _, name := range goldenArtifacts {
				golden := filepath.Join("testdata", "golden", tc.name, name)
				got, gerr := os.ReadFile(filepath.Join(dir, name))
				if gerr != nil && !os.IsNotExist(gerr) {
					t.Fatal(gerr)
				}
				if *updateGolden {
					writeGolden(t, golden, got, gerr == nil)
				}
				want, werr := os.ReadFile(golden)
				if werr != nil && !os.IsNotExist(werr) {
					t.Fatal(werr)
				}
				switch {
				case gerr != nil && werr != nil:
					// Absent on both sides (a clean run writes no alerts.jsonl).
				case gerr != nil || werr != nil:
					t.Errorf("%s: produced=%v golden=%v", name, gerr == nil, werr == nil)
				case !bytes.Equal(got, want):
					t.Errorf("%s differs from %s", name, golden)
				}
			}
		})
	}
}

// writeGolden installs (or, when the run produced no such file, removes)
// one golden artifact.
func writeGolden(t *testing.T, path string, data []byte, present bool) {
	t.Helper()
	if !present {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

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

// goldenArtifacts are the small capture files, committed byte for byte.
// The manifest inventories every other artifact by SHA-256, so
// events.jsonl (where fired alerts are bridged as EventAlert) and the
// large decision, probe and checkpoint files are pinned through it.
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
			checkGolden(t, dir, tc.name)
		})
	}
}

// TestFlightArtifactsGolden pins every artifact of flight-recorded
// captures: a 2 h HEB-D run on PR with probes every 60 steps, a
// checkpoint every slot, and audit and alerts on, as the benchmark's
// flight op records it; and a two-run capture whose runs share one key
// (the full run and one stopped after an hour, with a SoC-floor rule so
// alerts.jsonl is written), contributed in both orders, so ties order by
// content fingerprint.
// The manifest's SHA-256 inventory pins the large JSONL files.
func TestFlightArtifactsGolden(t *testing.T) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	const d = 2 * time.Hour
	proto := func() Prototype {
		p := DefaultPrototype()
		p.Capture = obs.NewCapture()
		p.Capture.SetLabel("golden")
		p.ProbeEvery = 60
		p.CheckpointEvery = 1
		p.Audit = obs.AuditModeReport
		p.Alert = alerts.ModeReport
		return p
	}
	write := func(c *obs.Capture) string {
		dir := t.TempDir()
		if err := c.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("flight", func(t *testing.T) {
		p := proto()
		if _, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{Duration: d}); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, write(p.Capture), "flight")
	})
	t.Run("flight_tie", func(t *testing.T) {
		p := proto()
		p.AlertRules = alerts.Rules{SoCFloor: 0.99}
		for _, opts := range []RunOptions{{Duration: d}, {Duration: d, MaxSteps: 3600}} {
			if _, err := p.Run(HEBD, pr.WithDuration(d), opts); err != nil {
				t.Fatal(err)
			}
		}
		runs := p.Capture.Runs()
		if len(runs) != 2 || runs[0].Key != runs[1].Key {
			t.Fatalf("want two runs sharing one key, got %d", len(runs))
		}
		dir := write(p.Capture)
		checkGolden(t, dir, "flight_tie")
		reversed := obs.NewCapture()
		reversed.SetLabel("golden")
		reversed.Contribute(runs[1])
		reversed.Contribute(runs[0])
		rdir := write(reversed)
		for _, name := range obs.ArtifactNames {
			a, aerr := os.ReadFile(filepath.Join(dir, name))
			b, berr := os.ReadFile(filepath.Join(rdir, name))
			if (aerr == nil) != (berr == nil) || !bytes.Equal(a, b) {
				t.Errorf("%s depends on contribution order", name)
			}
		}
	})
}

// checkGolden compares dir's goldenArtifacts with testdata/golden/name,
// rewriting the goldens first under -update-golden.
func checkGolden(t *testing.T, dir, name string) {
	t.Helper()
	for _, file := range goldenArtifacts {
		golden := filepath.Join("testdata", "golden", name, file)
		got, gerr := os.ReadFile(filepath.Join(dir, file))
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
			t.Errorf("%s: produced=%v golden=%v", file, gerr == nil, werr == nil)
		case !bytes.Equal(got, want):
			t.Errorf("%s differs from %s", file, golden)
		}
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

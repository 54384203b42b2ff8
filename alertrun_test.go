package heb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
)

// alertCaptureBytes runs the multi-seed sweep with the SLO rule engine
// on — a deliberately low SoC ceiling so every cell fires warnings —
// and returns the alert artifact bytes.
func alertCaptureBytes(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.Alert = alerts.ModeReport
	p.AlertRules = alerts.Rules{SoCCeiling: 0.5}
	_, err := MultiSeedComparison(p, MultiSeedOptions{
		Seeds:    2,
		Duration: 40 * time.Minute,
		Workload: "PR",
		Schemes:  []SchemeID{BaOnly, HEBD},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p.Capture.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range []string{"alerts.jsonl", "manifest.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
		out[name] = b
	}
	return out
}

// TestAlertsDeterministicAcrossWorkers extends the worker-identity
// guarantee to the alerting layer: alerts.jsonl and the manifest's
// health verdicts are byte-identical whether the sweep cells ran on one
// worker or many.
func TestAlertsDeterministicAcrossWorkers(t *testing.T) {
	seq := alertCaptureBytes(t, 1)
	par := alertCaptureBytes(t, 4)
	for name, want := range seq {
		if !bytes.Equal(par[name], want) {
			t.Errorf("%s differs between workers=1 and workers=4", name)
		}
	}
}

// TestCleanRunHealthOK pins the default-rule calibration: a healthy
// HEB-D run on every evaluation workload fires nothing, so its health
// verdict is ok and no alerts.jsonl appears in the capture.
func TestCleanRunHealthOK(t *testing.T) {
	for _, wl := range EvaluationWorkloads() {
		p := DefaultPrototype()
		p.Alert = alerts.ModeReport
		p.Alerts = alerts.NewLog()
		d := 2 * time.Hour
		if _, err := p.Run(HEBD, wl.WithDuration(d), RunOptions{Duration: d}); err != nil {
			t.Fatalf("%s: %v", wl.Name(), err)
		}
		reports := p.Alerts.Reports()
		if len(reports) != 1 {
			t.Fatalf("%s: %d reports, want 1", wl.Name(), len(reports))
		}
		r := reports[0]
		if r.Health != alerts.HealthOK || r.Warnings != 0 || r.Criticals != 0 {
			t.Errorf("%s: clean HEB-D run not healthy: %s", wl.Name(), r.Summary())
		}
	}
}

// TestStrictAlertAbortsBreachedRun is the seeded fault injection for the
// rule engine: an impossibly high SoC floor guarantees a critical
// soc_floor breach as soon as the battery discharges, and strict mode
// must abort the run early with the SLO error while report mode lets the
// same breach run to completion with a critical verdict.
func TestStrictAlertAbortsBreachedRun(t *testing.T) {
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 2 * time.Hour

	p := DefaultPrototype()
	p.Alert = alerts.ModeStrict
	p.AlertRules = alerts.Rules{SoCFloor: 0.99}
	p.Alerts = alerts.NewLog()
	w, opts := pr.WithDuration(d), RunOptions{Duration: d}
	res, err := p.Run(BaOnly, w, opts)
	if err == nil {
		t.Fatal("strict run with a breached SoC floor did not fail")
	}
	if !strings.Contains(err.Error(), "alert SLOs failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The abort names the run, also when no reader asked for its key.
	named := "heb: " + p.runKey(BaOnly, w, d, opts) + ": "
	if !strings.HasPrefix(err.Error(), named) {
		t.Errorf("strict abort does not name the run:\n%v\nwant prefix %q", err, named)
	}
	bare := p
	bare.Alerts = nil
	if _, err := bare.Run(BaOnly, w, opts); err == nil || !strings.HasPrefix(err.Error(), named) {
		t.Errorf("strict abort without an alert log does not name the run: %v", err)
	}
	if res.Steps >= int(d/p.Step) {
		t.Errorf("strict run was not aborted early: %d steps", res.Steps)
	}
	reports := p.Alerts.Reports()
	if len(reports) != 1 || reports[0].Health != alerts.HealthCritical || reports[0].Criticals == 0 {
		t.Fatalf("strict breach report wrong: %+v", reports)
	}

	// Same breach in report mode: full run, critical verdict, no error.
	q := DefaultPrototype()
	q.Alert = alerts.ModeReport
	q.AlertRules = alerts.Rules{SoCFloor: 0.99}
	q.Alerts = alerts.NewLog()
	res, err = q.Run(BaOnly, pr.WithDuration(d), RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != int(d/q.Step) {
		t.Errorf("report-mode run truncated: %d steps", res.Steps)
	}
	if un := q.Alerts.Unhealthy(); len(un) != 1 || un[0].Health != alerts.HealthCritical {
		t.Fatalf("report-mode breach not critical: %+v", q.Alerts.Reports())
	}
}

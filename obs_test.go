package heb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/runner"
	"heb/internal/solar"
)

// traceShape is a trace's structure — tracks by group and name, and
// their span names — with the wall-clock timestamps and durations
// dropped.
func traceShape(tr *obs.Tracer) []obs.TraceEvent {
	events := tr.Events()
	for i := range events {
		events[i].TS, events[i].Dur = 0, 0
	}
	return events
}

// captureBytes runs the multi-seed sweep with the given worker count
// under a fresh capture — probes, audits and span tracing on — and
// returns every artifact file's contents plus the trace's structure.
func captureBytes(t *testing.T, workers int) (map[string][]byte, []obs.TraceEvent) {
	t.Helper()
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.ProbeEvery = 60
	p.Audit = obs.AuditModeReport
	p.Tracer = obs.NewTracer()
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
	for _, name := range []string{"events.jsonl", "decisions.jsonl", "metrics.prom", "probes.jsonl", "audits.jsonl", "manifest.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
		out[name] = b
	}
	return out, traceShape(p.Tracer)
}

// TestCaptureDeterministicAcrossWorkers is the headline determinism
// guarantee: the artifact files a sweep writes — including probes.jsonl
// and audits.jsonl — are byte-identical whether the cells ran on one
// worker or many. The wall-clock trace keeps its structure.
func TestCaptureDeterministicAcrossWorkers(t *testing.T) {
	seq, seqTrace := captureBytes(t, 1)
	par, parTrace := captureBytes(t, 4)
	for name, want := range seq {
		if !bytes.Equal(par[name], want) {
			t.Errorf("%s differs between workers=1 and workers=4", name)
		}
	}
	if !reflect.DeepEqual(parTrace, seqTrace) {
		t.Error("trace structure differs between workers=1 and workers=4")
	}
}

// TestAllSchemesPassEnergyAudit holds every Table 2 scheme to the
// energy-conservation ledger: a run may not create or destroy energy at
// the bus boundary beyond float summation noise.
func TestAllSchemesPassEnergyAudit(t *testing.T) {
	p := DefaultPrototype()
	p.Audit = obs.AuditModeReport
	p.Audits = obs.NewAuditLog()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 40 * time.Minute
	for _, id := range AllSchemes() {
		if _, err := p.Run(id, pr.WithDuration(d), RunOptions{Duration: d}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	reports := p.Audits.Reports()
	if len(reports) != len(AllSchemes()) {
		t.Fatalf("collected %d reports, want %d", len(reports), len(AllSchemes()))
	}
	for _, r := range reports {
		if !r.Passed {
			t.Errorf("%s", r.Summary())
		}
		if r.RelDrift >= 1e-6 {
			t.Errorf("%s: relative drift %g, want < 1e-6", r.Run, r.RelDrift)
		}
		if r.Steps == 0 {
			t.Errorf("%s: audit saw no steps", r.Run)
		}
	}
}

// TestStrictAuditCleanOnHealthyRun checks the fail-fast path stays quiet
// when physics hold: strict mode neither errors nor truncates the run.
func TestStrictAuditCleanOnHealthyRun(t *testing.T) {
	p := DefaultPrototype()
	p.Audit = obs.AuditModeStrict
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	res, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != int(d/p.Step) {
		t.Errorf("strict run truncated: %d steps", res.Steps)
	}
}

// TestRunTraceAndProbesArtifacts pins the per-run deep-observability
// contract: probe samples stamped with the run key land in the capture,
// the audit report is attached, and the tracer's output passes the
// trace-event validator with exactly one run span.
func TestRunTraceAndProbesArtifacts(t *testing.T) {
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.ProbeEvery = 120
	p.Audit = obs.AuditModeReport
	p.Tracer = obs.NewTracer()
	p.TraceCell = "unit"
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	res, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	runs := p.Capture.Runs()
	if len(runs) != 1 {
		t.Fatalf("capture holds %d runs", len(runs))
	}
	a := runs[0]
	// 2 battery strings + 2 SC banks, sampled every 120 of 1800 steps.
	wantSamples := 4 * ((res.Steps + p.ProbeEvery - 1) / p.ProbeEvery)
	if len(a.Probes) != wantSamples {
		t.Errorf("captured %d probe samples, want %d", len(a.Probes), wantSamples)
	}
	for _, s := range a.Probes {
		if s.Run != a.Key {
			t.Fatalf("probe sample not stamped with run key: %q", s.Run)
		}
	}
	if a.Audit == nil || !a.Audit.Passed || a.Audit.Run != a.Key {
		t.Errorf("audit report missing or unlabeled: %+v", a.Audit)
	}

	events := p.Tracer.Events()
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	var spans []string
	for _, e := range events {
		if e.Phase == "M" && e.Name == "process_name" && e.Args["name"] != "unit" {
			t.Errorf("trace group %v, want unit", e.Args["name"])
		}
		if e.Phase == "X" {
			spans = append(spans, e.Name)
		}
	}
	if len(spans) != 1 || spans[0] != "run" {
		t.Errorf("trace spans %v, want one run span", spans)
	}
}

// TestRunCaptureArtifacts pins the per-run capture contract: one
// decision record per control slot, JSONL round-trips, and the metrics
// exposition carrying the engine counters.
func TestRunCaptureArtifacts(t *testing.T) {
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 90 * time.Minute
	res, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}

	runs := p.Capture.Runs()
	if len(runs) != 1 {
		t.Fatalf("capture holds %d runs, want 1", len(runs))
	}
	a := runs[0]
	if len(a.Decisions) != res.SlotCount {
		t.Fatalf("captured %d decision records, want SlotCount %d", len(a.Decisions), res.SlotCount)
	}
	if a.Steps != int64(res.Steps) || a.Slots != int64(res.SlotCount) {
		t.Errorf("artifact counters %d/%d != result %d/%d", a.Steps, a.Slots, res.Steps, res.SlotCount)
	}
	if len(a.Events) == 0 {
		t.Error("no events captured")
	}
	for _, rec := range a.Decisions {
		if rec.Run != a.Key {
			t.Fatalf("decision record not stamped with run key: %q", rec.Run)
		}
	}

	// JSONL round-trip through the query helpers.
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, a.Decisions); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL[obs.DecisionRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(a.Decisions) {
		t.Fatalf("round-trip lost records: %d -> %d", len(a.Decisions), len(back))
	}
	for i := range back {
		if back[i] != a.Decisions[i] {
			t.Fatalf("decision %d changed in round-trip:\n%+v\n%+v", i, a.Decisions[i], back[i])
		}
	}

	dir := t.TempDir()
	if err := p.Capture.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"heb_engine_steps_total", "heb_engine_mismatch_steps_total",
		"heb_control_slots_total", "heb_pat_lookups_total",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestRunOptionSinksComposeWithCapture checks that a caller's own event
// sink and decision trace both still fire when a capture is attached.
func TestRunOptionSinksComposeWithCapture(t *testing.T) {
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 40 * time.Minute
	userLog := obs.NewLog(0)
	var traced []obs.DecisionRecord
	res, err := p.Run(HEBD, pr.WithDuration(d), RunOptions{
		Duration:      d,
		Events:        userLog,
		DecisionTrace: func(r obs.DecisionRecord) { traced = append(traced, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if userLog.Len() == 0 {
		t.Error("user event sink saw nothing")
	}
	if len(traced) != res.SlotCount {
		t.Errorf("user trace saw %d records, want %d", len(traced), res.SlotCount)
	}
	slotSecs := p.Slot.Seconds()
	for i, rec := range traced {
		if want := float64(i) * slotSecs; rec.Seconds != want {
			t.Fatalf("record %d stamped %gs, want %gs", i, rec.Seconds, want)
		}
	}
}

// TestPrototypeProgressCountsSteps checks the sweep instrumentation
// hook: each run feeds its step count into the shared Progress.
func TestPrototypeProgressCountsSteps(t *testing.T) {
	p := DefaultPrototype()
	var prog runner.Progress
	p.Progress = &prog
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	res, err := p.Run(SCFirst, pr.WithDuration(d), RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Snapshot().Units; got != int64(res.Steps) {
		t.Errorf("progress units %d != steps %d", got, res.Steps)
	}
}

// TestCaptureKeepsDayLongSolarEvents checks that a captured day of HEB-D
// on solar supply, which emits more events than DefaultEventCap, keeps
// them all: the run's cap grows with its simulated length.
func TestCaptureKeepsDayLongSolarEvents(t *testing.T) {
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	if _, err := Figure12d(p, solar.DefaultConfig(), 24*time.Hour, []SchemeID{HEBD}); err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, r := range p.Capture.BuildManifest().Runs {
		if r.Summary.EventsDropped > 0 {
			t.Errorf("run %s kept %d events and dropped %d", r.Key, r.Summary.Events, r.Summary.EventsDropped)
		}
		most = max(most, r.Summary.Events)
	}
	if most <= obs.DefaultEventCap {
		t.Errorf("busiest run emitted %d events, not past DefaultEventCap %d: the check shows nothing", most, obs.DefaultEventCap)
	}
}

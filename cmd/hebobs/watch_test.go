package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/registry/baseline"
)

// artifact builds one synthetic complete run with a chosen
// energy-efficiency value and optional alert health.
func artifact(scheme string, seed int64, eff float64, health string) obs.RunArtifact {
	a := obs.RunArtifact{
		Key: scheme + "|PR|1h|seed=" + string(rune('0'+seed)) + "|cfg=0011223344556677",
		Events: []obs.Event{
			{Seconds: 0, Kind: obs.EventRunStart, Server: -1, Detail: scheme},
		},
		Decisions: []obs.DecisionRecord{
			{Slot: 1, Mode: "split", Ratio: 0.5, Completed: true},
		},
		Steps: 3600,
		Slots: 1,
		Metrics: map[string]float64{
			"energy_efficiency": eff,
			"downtime_fraction": 0,
		},
	}
	if health != "" {
		crits := 0
		if health == alerts.HealthCritical {
			crits = 1
		}
		a.Alerts = &alerts.Report{Mode: "report", Events: 1, Warnings: 1 - crits,
			Criticals: crits, Health: health}
	}
	return a
}

func writeArtifacts(t *testing.T, dir string, arts ...obs.RunArtifact) obs.Manifest {
	t.Helper()
	c := obs.NewCapture()
	c.SetLabel("hebobs-watch-test")
	for _, a := range arts {
		c.Contribute(a)
	}
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScoreFlagsOutlierRun(t *testing.T) {
	root := t.TempDir()
	writeArtifacts(t, filepath.Join(root, "sweep"),
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""),
		artifact("HEB-D", 5, 0.85, ""),
		artifact("HEB-D", 6, 5.0, ""))
	var sb strings.Builder
	criticals, err := score(&sb, root, "", baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 1 {
		t.Fatalf("criticals = %d, want 1:\n%s", criticals, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "verdict=critical") || !strings.Contains(out, "worst=energy_efficiency") {
		t.Errorf("score output missing outlier line:\n%s", out)
	}
	if !strings.Contains(out, "6 runs scored: 1 critical") {
		t.Errorf("score summary wrong:\n%s", out)
	}
}

func TestScoreSingleRunAndUnknown(t *testing.T) {
	root := t.TempDir()
	m := writeArtifacts(t, filepath.Join(root, "sweep"),
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""))
	var sb strings.Builder
	criticals, err := score(&sb, root, m.Runs[0].ID, baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 0 || !strings.Contains(sb.String(), "1 runs scored") {
		t.Fatalf("single-run score = %d criticals:\n%s", criticals, sb.String())
	}
	if _, err := score(&sb, root, "nope", baseline.Window{}); err == nil {
		t.Fatal("unknown run ID scored")
	}
}

func TestScoreEscalatesUnhealthyRun(t *testing.T) {
	root := t.TempDir()
	writeArtifacts(t, filepath.Join(root, "sweep"),
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, alerts.HealthCritical),
		artifact("HEB-D", 4, 0.84, ""),
		artifact("HEB-D", 5, 0.85, ""))
	var sb strings.Builder
	criticals, err := score(&sb, root, "", baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 1 || !strings.Contains(sb.String(), "health=critical") {
		t.Fatalf("unhealthy run not escalated (%d criticals):\n%s", criticals, sb.String())
	}
}

func TestDiffFlagsCohortDrift(t *testing.T) {
	root := t.TempDir()
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	writeArtifacts(t, a,
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""))
	// Cohort B collapsed to a quarter of A's efficiency: critical drift.
	writeArtifacts(t, b,
		artifact("HEB-D", 1, 0.20, ""),
		artifact("HEB-D", 2, 0.21, ""),
		artifact("HEB-D", 3, 0.22, ""),
		artifact("HEB-D", 4, 0.23, ""))
	var sb strings.Builder
	criticals, err := diff(&sb, a, b, baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals == 0 || !strings.Contains(sb.String(), "HEB-D|PR|energy_efficiency") {
		t.Fatalf("drift not flagged (%d criticals):\n%s", criticals, sb.String())
	}
}

func TestDiffIdenticalTreesClean(t *testing.T) {
	root := t.TempDir()
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	arts := []obs.RunArtifact{
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""),
	}
	writeArtifacts(t, a, arts...)
	writeArtifacts(t, b, arts...)
	var sb strings.Builder
	criticals, err := diff(&sb, a, b, baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 0 || !strings.Contains(sb.String(), "0 critical, 0 warn") {
		t.Fatalf("identical trees diffed dirty (%d criticals):\n%s", criticals, sb.String())
	}
}

func writeBench(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchDrift(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeBench(t, base, `{"benchmarks": [
  {"name":"BenchmarkEngineStep","ns_per_op":1000,"allocs_per_op":897,"bytes_per_op":156000,"sim_steps_per_second":null},
  {"name":"BenchmarkEngineReuse","ns_per_op":1000,"allocs_per_op":62,"bytes_per_op":9300,"sim_steps_per_second":null},
  {"name":"BenchmarkCheckpointDelta","ns_per_op":1300,"allocs_per_op":1064,"bytes_per_op":352000,"sim_steps_per_second":null},
  {"name":"BenchmarkEngineAlertsEnabled","ns_per_op":1300,"allocs_per_op":919,"bytes_per_op":159000,"sim_steps_per_second":null}
]}`)

	// Identical file: clean.
	var sb strings.Builder
	criticals, err := bench(&sb, base, base, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 0 || !strings.Contains(sb.String(), "within tolerance") {
		t.Fatalf("self-compare dirty (%d criticals):\n%s", criticals, sb.String())
	}

	// Alloc drift is critical even when ns/op is fine; ns/op blowups and
	// missing benchmarks count too.
	cur := filepath.Join(dir, "cur.json")
	writeBench(t, cur, `{"benchmarks": [
  {"name":"BenchmarkEngineStep","ns_per_op":1600,"allocs_per_op":902,"bytes_per_op":156000,"sim_steps_per_second":null},
  {"name":"BenchmarkEngineReuse","ns_per_op":1000,"allocs_per_op":62,"bytes_per_op":9300,"sim_steps_per_second":null},
  {"name":"BenchmarkCheckpointDelta","ns_per_op":1300,"allocs_per_op":1064,"bytes_per_op":352000,"sim_steps_per_second":null}
]}`)
	sb.Reset()
	criticals, err = bench(&sb, cur, base, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if criticals != 3 {
		t.Fatalf("criticals = %d, want 3 (allocs, ns, missing):\n%s", criticals, out)
	}
	for _, want := range []string{"must match exactly", "by more than", "not measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench output missing %q:\n%s", want, out)
		}
	}

	// The pool-wobble slack: MultiSeed* and EngineProf* rows tolerate
	// ±8 allocs/op, every other row none.
	slackBase := filepath.Join(dir, "slack_base.json")
	writeBench(t, slackBase, `{"benchmarks": [
  {"name":"BenchmarkMultiSeedParallel","ns_per_op":1000,"allocs_per_op":100},
  {"name":"BenchmarkEngineProfEnabled","ns_per_op":1000,"allocs_per_op":100},
  {"name":"BenchmarkEngineStep","ns_per_op":1000,"allocs_per_op":100}
]}`)
	for _, tc := range []struct {
		multi, prof, step string
		want              int
	}{
		{"108", "92", "100", 0},
		{"92", "108", "100", 0},
		{"109", "100", "100", 1},
		{"100", "91", "100", 1},
		{"100", "100", "101", 1},
		{"100", "100", "99", 1},
	} {
		cur := filepath.Join(dir, "slack_cur.json")
		writeBench(t, cur, `{"benchmarks": [
  {"name":"BenchmarkMultiSeedParallel","ns_per_op":1000,"allocs_per_op":`+tc.multi+`},
  {"name":"BenchmarkEngineProfEnabled","ns_per_op":1000,"allocs_per_op":`+tc.prof+`},
  {"name":"BenchmarkEngineStep","ns_per_op":1000,"allocs_per_op":`+tc.step+`}
]}`)
		sb.Reset()
		criticals, err := bench(&sb, cur, slackBase, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if criticals != tc.want {
			t.Errorf("MultiSeed %s, EngineProf %s, EngineStep %s vs 100: criticals = %d, want %d:\n%s",
				tc.multi, tc.prof, tc.step, criticals, tc.want, sb.String())
		}
	}
	if got := allocTolerance("BenchmarkCaptureWriteFiles"); got != allocSlack {
		t.Errorf("CaptureWriteFiles allocs/op slack = %g, want ±%d", got, allocSlack)
	}
}

func TestBenchBadFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeBench(t, good, `{"benchmarks": [{"name":"B","ns_per_op":1,"allocs_per_op":1}]}`)
	var sb strings.Builder
	if _, err := bench(&sb, filepath.Join(dir, "missing.json"), good, 1.5); err == nil {
		t.Fatal("missing current file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	writeBench(t, bad, "{not json")
	if _, err := bench(&sb, bad, good, 1.5); err == nil {
		t.Fatal("corrupt current file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	writeBench(t, empty, `{"benchmarks": []}`)
	if _, err := bench(&sb, empty, good, 1.5); err == nil {
		t.Fatal("empty benchmark list accepted")
	}
}

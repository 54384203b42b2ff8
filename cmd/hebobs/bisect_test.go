package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heb"
	"heb/internal/obs"
	"heb/internal/units"
)

// writeChain records a synthetic hash-chained checkpoints.jsonl whose
// state at slot s is produced by stateAt.
func writeChain(t *testing.T, dir string, slots int, stateAt func(slot int) any) {
	t.Helper()
	log := obs.NewCheckpointLog()
	for s := 1; s <= slots; s++ {
		raw, err := json.Marshal(stateAt(s))
		if err != nil {
			t.Fatal(err)
		}
		log.Append(s, s*600, float64(s*600), raw)
	}
	records := log.Records()
	for i := range records {
		records[i].Run = "test"
	}
	f, err := os.Create(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteCheckpointsJSONL(f, records); err != nil {
		t.Fatal(err)
	}
}

// TestBisectFindsFirstDivergence builds two chains that agree through
// slot 7 and diverge from slot 8 on, and checks the binary search lands
// exactly on slot 8 with the right field diff.
func TestBisectFindsFirstDivergence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	state := func(slot int, drift float64) any {
		return map[string]any{
			"steps":  slot * 600,
			"soc":    0.5 + drift,
			"nested": map[string]any{"served": float64(slot) * 10.0},
		}
	}
	writeChain(t, dirA, 12, func(s int) any { return state(s, 0) })
	writeChain(t, dirB, 12, func(s int) any {
		if s >= 8 {
			return state(s, 0.01)
		}
		return state(s, 0)
	})

	out := captureBisect(t, dirA, dirB, 0, nil, true)
	if !strings.Contains(out, "first divergence at checkpoint slot 8") {
		t.Fatalf("expected divergence at slot 8, got:\n%s", out)
	}
	if !strings.Contains(out, "last agreeing checkpoint: slot 7") {
		t.Fatalf("expected last agreeing slot 7, got:\n%s", out)
	}
	if !strings.Contains(out, "$.soc") {
		t.Fatalf("expected $.soc in the field diff, got:\n%s", out)
	}
}

// TestBisectNoDivergence compares a chain with itself.
func TestBisectNoDivergence(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 5, func(s int) any {
		return map[string]any{"steps": s * 600}
	})
	out := captureBisect(t, dir, dir, 0, nil, false)
	if !strings.Contains(out, "no divergence across 5 common checkpoints") {
		t.Fatalf("expected no divergence, got:\n%s", out)
	}
}

// TestBisectToleranceAndIgnore checks that the float tolerance and the
// ignore list both suppress a divergence they cover.
func TestBisectToleranceAndIgnore(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeChain(t, dirA, 4, func(s int) any {
		return map[string]any{"soc": 0.5, "budget_w": 280.0}
	})
	writeChain(t, dirB, 4, func(s int) any {
		return map[string]any{"soc": 0.5 + 1e-12, "budget_w": 238.0}
	})

	// Strict: both fields diverge at slot 1.
	out := captureBisect(t, dirA, dirB, 0, map[string]bool{}, true)
	if !strings.Contains(out, "first divergence at checkpoint slot 1") {
		t.Fatalf("strict compare should diverge at slot 1, got:\n%s", out)
	}
	// Tolerance absorbs the soc drift, ignore hides the config echo.
	out = captureBisect(t, dirA, dirB, 1e-9, map[string]bool{"budget_w": true}, false)
	if !strings.Contains(out, "no divergence") {
		t.Fatalf("tol+ignore should suppress divergence, got:\n%s", out)
	}
}

// TestBisectRealRuns records three library-driven runs — two identical,
// one with a different utility budget — and checks both bisect verdicts.
func TestBisectRealRuns(t *testing.T) {
	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	record(t, dirA, 280)
	record(t, dirB, 280)
	record(t, dirC, 238)

	out := captureBisect(t, dirA, dirB, 0, nil, false)
	if !strings.Contains(out, "no divergence") {
		t.Fatalf("identical runs should not diverge, got:\n%s", out)
	}
	out = captureBisect(t, dirA, dirC, 0, nil, true)
	if !strings.Contains(out, "first divergence at checkpoint slot") || !strings.Contains(out, "$.battery.") {
		t.Fatalf("perturbed run should diverge with a field-level diff, got:\n%s", out)
	}
}

// TestBisectReportsDigests: a divergence only the PAT or a series shows
// is reported at its digest path, and no tolerance hides it.
func TestBisectReportsDigests(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	state := func(slot int, patSum, seriesSum string) any {
		digest := func(n int, sum string) any { return map[string]any{"len": n, "digest": sum} }
		return map[string]any{
			"steps":         slot * 600,
			"demand_series": digest(slot*600, seriesSum),
			"controller":    map[string]any{"pat": map[string]any{"entries": digest(800, patSum), "lookups": slot}},
		}
	}
	writeChain(t, dirA, 6, func(s int) any { return state(s, "11", "21") })
	writeChain(t, dirB, 6, func(s int) any {
		switch {
		case s >= 5:
			return state(s, "12", "22")
		case s >= 3:
			return state(s, "12", "21")
		}
		return state(s, "11", "21")
	})
	out := captureBisect(t, dirA, dirB, 0.5, nil, true)
	if !strings.Contains(out, "first divergence at checkpoint slot 3") ||
		!strings.Contains(out, "$.controller.pat.entries.digest") || strings.Contains(out, "$.demand_series") {
		t.Fatalf("expected a PAT digest divergence at slot 3, got:\n%s", out)
	}
}

// captureBisect runs bisect with stdout redirected to a pipe and
// asserts the divergence verdict.
func captureBisect(t *testing.T, dirA, dirB string, tol float64, ignore map[string]bool, wantDiverged bool) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if ignore == nil {
		ignore = ignoreSet("budget_w,Budget,NumServers")
	}
	diverged, err := bisect(f, dirA, dirB, "", "", tol, ignore, 16)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != wantDiverged {
		t.Fatalf("diverged=%v, want %v", diverged, wantDiverged)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestDiffStates(t *testing.T) {
	a := json.RawMessage(`{"x":1,"arr":[1,2,3],"only_a":true,"same":"s"}`)
	b := json.RawMessage(`{"x":2,"arr":[1,9],"only_b":null,"same":"s"}`)
	diffs := obs.DiffJSON(a, b, 0, nil)
	want := map[string]bool{"$.x": true, "$.arr[1]": true, "$.arr.len": true, "$.only_a": true, "$.only_b": true}
	if len(diffs) != len(want) {
		t.Fatalf("got %d diffs %v, want %d", len(diffs), diffs, len(want))
	}
	for _, d := range diffs {
		if !want[d.Path] {
			t.Errorf("unexpected diff path %q", d.Path)
		}
	}
	// Paths come back sorted for a stable report.
	for i := 1; i < len(diffs); i++ {
		if diffs[i-1].Path > diffs[i].Path {
			t.Fatalf("diff paths unsorted: %q after %q", diffs[i-1].Path, diffs[i].Path)
		}
	}
}

func TestParseIgnoreSet(t *testing.T) {
	got := ignoreSet(" a , b,,c ")
	for _, k := range []string{"a", "b", "c"} {
		if !got[k] {
			t.Errorf("missing %q in %v", k, got)
		}
	}
	if len(got) != 3 {
		t.Errorf("got %v, want 3 keys", got)
	}
	if len(ignoreSet("")) != 0 {
		t.Error("empty spec should yield empty set")
	}
}

// record runs the default HEB-D cell for two hours with the given
// budget and writes its checkpoint chain into dir.
func record(t *testing.T, dir string, budget float64) {
	t.Helper()
	p := heb.DefaultPrototype()
	p.Budget = units.Power(budget)
	p.CheckpointEvery = 1
	pr, err := heb.WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	var records []obs.CheckpointRecord
	opts := heb.RunOptions{
		Duration: 2 * time.Hour,
		CheckpointSink: func(r obs.CheckpointRecord) {
			r.Run = fmt.Sprintf("budget=%g", budget)
			records = append(records, r)
		},
	}
	if _, err := p.Run(heb.HEBD, pr.WithDuration(2*time.Hour), opts); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteCheckpointsJSONL(f, records); err != nil {
		t.Fatal(err)
	}
}

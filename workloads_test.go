package heb

import (
	"testing"
	"time"

	"heb/internal/trace"
	"heb/internal/workload"
)

func TestWorkloadNamed(t *testing.T) {
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatalf("WorkloadNamed: %v", err)
	}
	if w.Name() != "PR" {
		t.Errorf("name %q", w.Name())
	}
	class, ok := w.Class()
	if !ok || class != workload.LargePeaks {
		t.Errorf("class %v ok=%v", class, ok)
	}
	if _, err := WorkloadNamed("XX"); err == nil {
		t.Error("unknown abbreviation accepted")
	}
}

func TestWorkloadTraceGeneration(t *testing.T) {
	p := DefaultPrototype()
	w, _ := WorkloadNamed("MS")
	tr, err := w.WithDuration(30 * time.Minute).Trace(p)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.Servers() != p.NumServers {
		t.Errorf("trace width %d, want %d", tr.Servers(), p.NumServers)
	}
	if tr.Duration() != 30*time.Minute {
		t.Errorf("trace duration %v", tr.Duration())
	}
}

func TestWorkloadFromTrace(t *testing.T) {
	p := DefaultPrototype()
	tr := trace.MustNew("custom", time.Second, p.NumServers, 60)
	w := WorkloadFromTrace(tr)
	got, err := w.Trace(p)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if got != tr {
		t.Error("trace-backed workload did not return its trace")
	}
	if w.Name() != "custom" {
		t.Errorf("name %q", w.Name())
	}
	if _, ok := w.Class(); ok {
		t.Error("trace-backed workload claims a class")
	}
	// Width mismatch must be rejected.
	narrow := trace.MustNew("narrow", time.Second, 2, 60)
	if _, err := WorkloadFromTrace(narrow).Trace(p); err == nil {
		t.Error("accepted mismatched trace width")
	}
}

func TestWorkloadEmpty(t *testing.T) {
	var w Workload
	if _, err := w.Trace(DefaultPrototype()); err == nil {
		t.Error("empty workload produced a trace")
	}
	if w.Name() != "empty" {
		t.Errorf("empty workload name %q", w.Name())
	}
}

func TestEvaluationWorkloads(t *testing.T) {
	ws := EvaluationWorkloads()
	if len(ws) != 8 {
		t.Fatalf("%d workloads, want 8", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name()] {
			t.Errorf("duplicate workload %s", w.Name())
		}
		seen[w.Name()] = true
	}
}

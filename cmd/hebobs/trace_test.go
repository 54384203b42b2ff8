package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heb"
	"heb/internal/obs"
)

// TestCheckAcceptsRealTrace records one HEB-D hour under a tracer, writes
// the capture and the trace where `hebsim -obs dir -trace dir/trace.json`
// would, and checks that hebobs check validates the trace and that it
// holds the run's one span.
func TestCheckAcceptsRealTrace(t *testing.T) {
	dir := t.TempDir()
	p := heb.DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.Tracer = obs.NewTracer()
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(heb.HEBD, wl.WithDuration(time.Hour), heb.RunOptions{Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := p.Capture.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Tracer.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}

	inv, _, err := check(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// Process and thread name metadata plus the run span.
	if !strings.Contains(inv, ", 3 trace events") {
		t.Errorf("inventory %q, want 3 trace events", inv)
	}
	var spans []string
	for _, e := range p.Tracer.Events() {
		if e.Phase == "X" {
			spans = append(spans, e.Name)
		}
	}
	if len(spans) != 1 || spans[0] != "run" {
		t.Errorf("trace spans %v, want one run span", spans)
	}
}

func TestTraceRejectsInvalidTrace(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	// Two complete events on one thread that overlap without nesting.
	bad := `[{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]`
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runMain(t, "check", dir)
	if code != 1 || !strings.Contains(out, "overlaps a without nesting") {
		t.Fatalf("hebobs check on an invalid trace: exit %d\n%s", code, out)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heb"
	"heb/internal/obs"
)

// writeTrace records one HEB-D hour under a virtual-clock span tracer
// and writes it where `hebsim -trace` would.
func writeTrace(t *testing.T, path string) {
	t.Helper()
	p := heb.DefaultPrototype()
	p.Tracer = obs.NewTracer()
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(heb.HEBD, wl.WithDuration(time.Hour), heb.RunOptions{Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Tracer.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRollsUpRealCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	writeTrace(t, path)
	var out bytes.Buffer
	if err := traceCmd(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nsteps ") {
		t.Fatalf("rollup lacks the steps phase:\n%s", out.String())
	}

	// -top 1 keeps the summary and header lines plus one phase row.
	out.Reset()
	if err := traceCmd(&out, []string{"-top", "1", path}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "1 phases") {
		t.Fatalf("-top 1 printed %d lines, want 3:\n%s", len(lines), out.String())
	}
}

func TestTraceRejectsInvalidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	// Two complete events on one thread that overlap without nesting.
	bad := `[{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runMain(t, "trace", path)
	if code != 1 || !strings.Contains(out, "overlaps a without nesting") {
		t.Fatalf("hebobs trace on an invalid trace: exit %d\n%s", code, out)
	}
}

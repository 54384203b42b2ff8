package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"heb/internal/obs"
)

// TestMain lets the tests drive hebsim end to end: with HEBSIM_TEST_MAIN
// set, the test binary runs main() on its command-line arguments instead
// of the test suite, so exit codes and stderr are the real ones.
func TestMain(m *testing.M) {
	if os.Getenv("HEBSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hebsim runs the command with args and returns its exit code and stderr.
func hebsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HEBSIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// wantExit fails the test unless hebsim exits with code and its stderr
// contains msg.
func wantExit(t *testing.T, code int, msg string, args ...string) {
	t.Helper()
	got, stderr := hebsim(t, args...)
	if got != code || !strings.Contains(stderr, msg) {
		t.Errorf("hebsim %s: exit %d, want %d with %q; stderr:\n%s",
			strings.Join(args, " "), got, code, msg, stderr)
	}
}

func TestRejectsNonPositiveDuration(t *testing.T) {
	for _, d := range []string{"-1h", "0s"} {
		wantExit(t, 2, "-duration must be positive", "-exp", "run", "-duration", d)
	}
}

// TestRejectsUnknownExperiment checks that an unknown -exp is a usage
// error caught before any side effect: no capture manifest is started.
func TestRejectsUnknownExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap")
	wantExit(t, 2, "unknown -exp", "-exp", "fig12x", "-duration", "1h", "-obs", dir)
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Errorf("unknown -exp wrote a manifest (stat: %v)", err)
	}
}

// TestRejectsIgnoredFlags checks that a negative -workers and a -exp run
// flag given to another experiment are usage errors, not silently
// ignored.
func TestRejectsIgnoredFlags(t *testing.T) {
	wantExit(t, 2, "-workers must not be negative", "-exp", "fig6", "-duration", "1h", "-workers", "-3")
	for _, f := range [][2]string{
		{"-scheme", "HEB-S"},
		{"-workload", "DA"},
		{"-workload-csv", "trace.csv"},
		{"-pat-in", "pat.json"},
		{"-pat-out", "pat.json"},
	} {
		wantExit(t, 2, "flags="+f[0]+" exp=fig6", "-exp", "fig6", "-duration", "1h", f[0], f[1])
	}
}

// TestReadmeListsEveryExperiment keeps README's -exp list in step with
// the experiment table.
func TestReadmeListsEveryExperiment(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if readme := strings.Join(strings.Fields(string(b)), " "); !strings.Contains(readme, experimentNames()) {
		t.Errorf("README.md does not list the -exp values %q", experimentNames())
	}
}

func TestRejectsBadCheckerModes(t *testing.T) {
	wantExit(t, 2, "bad -audit flag", "-exp", "run", "-duration", "1h", "-audit", "loud")
	wantExit(t, 2, "bad -alerts flag", "-exp", "run", "-duration", "1h", "-alerts", "loud")
}

// TestRejectsBadTraceAndProfileFlags checks that a -trace file that
// cannot be written fails the run, and that -profile needs a capture
// directory to write into and a known profile kind.
func TestRejectsBadTraceAndProfileFlags(t *testing.T) {
	run := []string{"-exp", "run", "-duration", "1h"}
	trace := filepath.Join(t.TempDir(), "missing", "trace.json")
	wantExit(t, 1, "trace.json", append(run, "-trace", trace)...)
	wantExit(t, 2, "-profile requires -obs", append(run, "-profile", "cpu")...)
	wantExit(t, 2, "bad -profile flag", append(run, "-obs", t.TempDir(), "-profile", "bogus")...)
}

// TestReplayAndResumeTreatCheckerFlagsAlike pins one rule for both
// checker flags: -replay and -resume both re-run from the seed, so both
// run the checker from step 0, whichever flag armed it.
func TestReplayAndResumeTreatCheckerFlagsAlike(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap")
	run := []string{"-exp", "run", "-duration", "1h", "-obs", dir}
	wantExit(t, 0, "", append(run, "-checkpoint-every", "1")...)
	for _, flag := range []string{"-audit", "-alerts"} {
		wantExit(t, 0, "", append(run, "-replay", "3-4", flag, "report")...)
		wantExit(t, 0, "", append(run, "-resume", flag, "report")...)
	}
}

// TestFlightFlagMisuse covers the flight-recorder flags' failure modes:
// malformed -replay windows are usage errors, -resume and -replay do not
// combine, and -replay needs a recorded chain to check.
func TestFlightFlagMisuse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap")
	run := []string{"-exp", "run", "-duration", "1h", "-obs", dir}
	for _, window := range []string{"0-3", "5-2", "x"} {
		wantExit(t, 2, "bad -replay flag", append(run, "-replay", window)...)
	}
	wantExit(t, 2, "-resume and -replay are mutually exclusive", append(run, "-resume", "-replay", "1-2")...)
	// A capture recorded without -checkpoint-every has no chain.
	wantExit(t, 0, "", run...)
	if _, err := os.Stat(filepath.Join(dir, "checkpoints.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("capture without -checkpoint-every wrote checkpoints.jsonl (stat: %v)", err)
	}
	wantExit(t, 1, "checkpoints.jsonl", append(run, "-replay", "1-2")...)
}

// TestObsDirDropsStaleArtifacts reuses one -obs directory for a capture
// with probes and checkpoints and then one without: the second capture
// removes the first one's optional artifacts instead of inventorying
// them as its own.
func TestObsDirDropsStaleArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap")
	run := []string{"-exp", "run", "-duration", "1h", "-obs", dir}
	wantExit(t, 0, "", append(run, "-probes", "60", "-checkpoint-every", "1", "-audit", "report")...)
	for _, name := range []string{"probes.jsonl", "checkpoints.jsonl", "audits.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("first capture: %v", err)
		}
	}
	wantExit(t, 0, "", run...)
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var inventoried []string
	for _, a := range m.Artifacts {
		inventoried = append(inventoried, a.Name)
	}
	if want := []string{"events.jsonl", "decisions.jsonl", "metrics.prom"}; !slices.Equal(inventoried, want) {
		t.Errorf("second manifest inventories %v, want %v", inventoried, want)
	}
	for _, name := range []string{"probes.jsonl", "checkpoints.jsonl", "audits.jsonl", "alerts.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s left behind (stat: %v)", name, err)
		}
	}
}

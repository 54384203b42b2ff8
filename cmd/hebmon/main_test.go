package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests drive hebmon end to end: with HEBMON_TEST_MAIN
// set, the test binary runs main() on its command-line arguments instead
// of the test suite, so exit codes and stderr are the real ones.
func TestMain(m *testing.M) {
	if os.Getenv("HEBMON_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wantExit fails the test unless hebmon exits with code and its stderr
// contains msg.
func wantExit(t *testing.T, code int, msg string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HEBMON_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	got := 0
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		got = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	if got != code || !strings.Contains(stderr.String(), msg) {
		t.Errorf("hebmon %s: exit %d, want %d with %q; stderr:\n%s",
			strings.Join(args, " "), got, code, msg, stderr.String())
	}
}

// TestRejectsBadFlags checks that each unusable numeric flag exits 2
// before the monitor serves or runs anything. The address has no valid
// port, so a flag that slipped through would fail to listen (exit 1)
// instead of binding one.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-history", "0"}, "-history 0 must be positive"},
		{[]string{"-runs", t.TempDir(), "-rescan", "0"}, "-rescan 0s must be positive"},
		{[]string{"-duration", "0s"}, "-duration 0s must be positive"},
		{[]string{"-duration", "-1h"}, "-duration -1h0m0s must be positive"},
		{[]string{"-speedup", "-1"}, "-speedup -1 must not be negative"},
		{[]string{"-speedup", "NaN"}, "-speedup NaN must not be negative"},
		{[]string{"-alerts", "loud"}, "loud"},
	} {
		wantExit(t, 2, tc.msg, append([]string{"-addr", ":-1", "-exit"}, tc.args...)...)
	}
}

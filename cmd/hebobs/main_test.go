package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test re-execute the test binary: with
// HEBOBS_TEST_MAIN set it runs main() on its command-line arguments (to
// drive hebobs end to end), and with HEBOBS_TEST_CAPTURE=perIter:dir it
// profiles capture's workload in a fresh process.
func TestMain(m *testing.M) {
	if os.Getenv("HEBOBS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	if spec := os.Getenv("HEBOBS_TEST_CAPTURE"); spec != "" {
		perIter, dir, _ := strings.Cut(spec, ":")
		n, err := strconv.Atoi(perIter)
		if err == nil {
			err = captureWorkload(dir, n)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as `hebobs args...` and returns
// its combined output and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HEBOBS_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestExitStatus pins the dispatcher's contract: 0 clean, 1 findings,
// 2 usage or read errors.
func TestExitStatus(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "hebobs prof check"},
		{[]string{"-h"}, 0, "hebobs watch bench"},
		{[]string{"obscheck"}, 2, "usage: hebobs"},
		{[]string{"watch"}, 2, "usage: hebobs"},
		{[]string{"check"}, 2, "usage: hebobs check"},
		{[]string{"check", "-no-such-flag", "dir"}, 2, "no-such-flag"},
		{[]string{"bisect", "a"}, 2, "usage: hebobs bisect"},
		{[]string{"prof", "top"}, 2, "usage: hebobs prof top"},
		{[]string{"check", missing}, 1, "events.jsonl missing"},
		{[]string{"bisect", missing, missing}, 2, "no checkpoints"},
		{[]string{"bisect", "-tol", "NaN", missing, missing}, 2, "-tol NaN"},
		{[]string{"bisect", "-tol", "-1", missing, missing}, 2, "-tol -1"},
		{[]string{"bisect", "-tol", "+Inf", missing, missing}, 2, "-tol +Inf"},
		{[]string{"watch", "bench", missing, missing}, 2, "no such file"},
		{[]string{"watch", "bench", "../../BENCH_obs.json", "../../BENCH_obs.json"}, 0, "within tolerance"},
		{[]string{"prof", "check", "-baseline", missing, "../../BENCH_prof.json"}, 2, "no such file"},
	} {
		out, code := runMain(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("hebobs %q: exit %d, want %d with %q:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}

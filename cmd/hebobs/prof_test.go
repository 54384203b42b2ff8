package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"heb/internal/obs/prof"
)

// capture writes a real allocs+cpu profile pair into dir/profiles by
// running a labeled allocation workload under a collector. The allocs
// profile is cumulative since process start, so the workload runs in a
// fresh process (see TestMain) that the other tests' allocations never
// touched.
func capture(t *testing.T, dir string, perIter int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), fmt.Sprintf("HEBOBS_TEST_CAPTURE=%d:%s", perIter, dir))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("capture workload: %v\n%s", err, out)
	}
}

// captureWorkload is capture's child-process body.
func captureWorkload(dir string, perIter int) error {
	c := prof.NewCollector(dir, []string{"cpu", "allocs"})
	if err := c.Start(); err != nil {
		return err
	}
	var escape [][]byte
	prof.DoCell("HEB-D", "PR", 42, func(ctx context.Context) {
		prof.SetPhase(ctx, prof.PhaseSteps)
		for i := 0; i < 2000; i++ {
			escape = append(escape, make([]byte, perIter))
		}
	})
	_ = escape
	return c.Stop()
}

func TestResolveInputs(t *testing.T) {
	root := t.TempDir()
	capA := filepath.Join(root, "a")
	capB := filepath.Join(root, "b")
	capture(t, capA, 512)
	capture(t, capB, 512)

	// Direct file.
	file := filepath.Join(capA, prof.Dir, prof.FileName("allocs"))
	got, err := resolveInputs([]string{file}, "allocs")
	if err != nil || len(got) != 1 {
		t.Fatalf("file input: %v %v", got, err)
	}
	// Capture dir.
	got, err = resolveInputs([]string{capA}, "allocs")
	if err != nil || len(got) != 1 || got[0] != file {
		t.Fatalf("capture dir input: %v %v", got, err)
	}
	// Tree: both captures merge.
	got, err = resolveInputs([]string{root}, "allocs")
	if err != nil || len(got) != 2 {
		t.Fatalf("tree input: %v %v", got, err)
	}
	// Tree with no matching kind errors.
	if _, err := resolveInputs([]string{t.TempDir()}, "mutex"); err == nil {
		t.Fatal("empty tree should error")
	}
}

func TestTopCmd(t *testing.T) {
	dir := t.TempDir()
	capture(t, dir, 1024)
	var out bytes.Buffer
	if err := profTopCmd(&out, []string{"-kind", "allocs", "-n", "10", dir}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "alloc_space/bytes") {
		t.Fatalf("missing sample header:\n%s", s)
	}
	if !strings.Contains(s, "capture") { // the allocating frame is in this test binary
		t.Fatalf("expected capture frame in rollup:\n%s", s)
	}
}

func TestTopByLabel(t *testing.T) {
	dir := t.TempDir()
	capture(t, dir, 1024)
	var out bytes.Buffer
	// Labels only attach to CPU samples; the CPU profile may legitimately
	// be empty for this tiny workload, in which case top still succeeds
	// with a zero total.
	err := profTopCmd(&out, []string{"-kind", "allocs", "-by", "phase", dir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "by phase:") {
		t.Fatalf("missing label bucket table:\n%s", out.String())
	}
}

func TestDiffCmdThreshold(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	capture(t, base, 256)
	capture(t, cur, 256)
	var out bytes.Buffer
	// Same workload twice: frame shares match, no threshold trip.
	if err := profDiffCmd(&out, []string{"-kind", "allocs", "-threshold", "30", base, cur}); err != nil {
		t.Fatalf("identical workloads should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Δpp") {
		t.Fatalf("missing delta table:\n%s", out.String())
	}
	// Threshold 0 disables the gate entirely.
	out.Reset()
	if err := profDiffCmd(&out, []string{"-kind", "allocs", "-threshold", "0", base, cur}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCmdUpdateAndGate(t *testing.T) {
	dir := t.TempDir()
	capture(t, dir, 512)
	baseline := filepath.Join(t.TempDir(), "BENCH_prof.json")

	var out bytes.Buffer
	if err := profCheckCmd(&out, []string{"-baseline", baseline, "-kind", "allocs", "-update", "-source", "test", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(baseline); err != nil {
		t.Fatal(err)
	}

	// Self-check passes.
	out.Reset()
	if err := profCheckCmd(&out, []string{"-baseline", baseline, "-kind", "allocs", dir}); err != nil {
		t.Fatalf("self check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "profile check OK") {
		t.Fatalf("missing OK line:\n%s", out.String())
	}

	// Seed a regression: a baseline whose frames don't cover the real
	// profile forces new-frame violations and a threshold exit.
	fake := filepath.Join(t.TempDir(), "BENCH_prof.json")
	if err := os.WriteFile(fake, []byte(`{"v":1,"sample":"alloc_space/bytes","frames":[{"name":"nothing.real","flat_pct":99}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := profCheckCmd(&out, []string{"-baseline", fake, "-kind", "allocs", dir})
	if err == nil {
		t.Fatalf("seeded regression should fail:\n%s", out.String())
	}
	if _, ok := err.(findings); !ok {
		t.Fatalf("want threshold failure (exit 1 class), got %T: %v", err, err)
	}
	if !strings.Contains(out.String(), "new-frame") {
		t.Fatalf("missing violation detail:\n%s", out.String())
	}
}

// TestCheckCmdFollowsBaselineSample pins prof check's default kind: with
// no -kind, a capture dir input loads the profile kind that carries the
// baseline's sample (allocs for an alloc_space baseline), for both a
// direct pprof file and the capture directory.
func TestCheckCmdFollowsBaselineSample(t *testing.T) {
	dir := t.TempDir()
	capture(t, dir, 1024)
	profPath := filepath.Join(dir, prof.Dir, prof.FileName("allocs"))
	base := filepath.Join(t.TempDir(), "BENCH_prof.json")
	var out bytes.Buffer
	if err := profCheckCmd(&out, []string{"-baseline", base, "-sample", "alloc_space", "-update", profPath}); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{profPath, dir} {
		out.Reset()
		if err := profCheckCmd(&out, []string{"-baseline", base, in}); err != nil {
			t.Fatalf("self check via %s: %v\n%s", in, err, out.String())
		}
		if !strings.Contains(out.String(), "profile check OK") || !strings.Contains(out.String(), "alloc_space") {
			t.Errorf("self check via %s:\n%s", in, out.String())
		}
	}

	// A cpu-sample baseline sends the same capture dir to cpu.pb.gz: the
	// gate may pass or flag frames, but it must not fail to find the
	// cpu sample type, as it would in the allocs profile.
	cpuBase := filepath.Join(t.TempDir(), "BENCH_prof.json")
	if err := os.WriteFile(cpuBase, []byte(`{"v":1,"sample":"cpu/nanoseconds","frames":[{"name":"no.suchFrame","flat_pct":95}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := profCheckCmd(&out, []string{"-baseline", cpuBase, dir})
	if _, isFinding := err.(findings); err != nil && !isFinding {
		t.Fatalf("cpu baseline against %s: %v\n%s", dir, err, out.String())
	}
}

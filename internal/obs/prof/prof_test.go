package prof

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseKinds(t *testing.T) {
	got, err := ParseKinds("heap, cpu,cpu")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "cpu,heap" {
		t.Fatalf("want normalised [cpu heap], got %v", got)
	}
	if got, err := ParseKinds("all"); err != nil || len(got) != len(Kinds) {
		t.Fatalf("all => %v, %v", got, err)
	}
	for _, bad := range []string{"", "  ", "goroutine", "cpu,nope"} {
		if _, err := ParseKinds(bad); err == nil {
			t.Errorf("ParseKinds(%q): want error", bad)
		}
	}
}

func TestKindFromFile(t *testing.T) {
	for _, k := range Kinds {
		got, ok := KindFromFile(FileName(k))
		if !ok || got != k {
			t.Errorf("round trip %q -> %q, %v", k, got, ok)
		}
	}
	for _, bad := range []string{"cpu.pb", "trace.json", "goroutine.pb.gz"} {
		if _, ok := KindFromFile(bad); ok {
			t.Errorf("KindFromFile(%q): want !ok", bad)
		}
	}
}

func TestKindForSample(t *testing.T) {
	for sample, want := range map[string]string{
		"alloc_space": "allocs", "alloc_objects": "allocs",
		"inuse_space": "heap", "inuse_objects": "heap",
		"contentions": "mutex", "delay": "mutex",
		"cpu": "cpu", "samples": "cpu",
	} {
		if got := KindForSample(sample); got != want {
			t.Errorf("KindForSample(%q) = %q, want %q", sample, got, want)
		}
	}
}

// burn gives the CPU profiler something attributable to this function.
//
//go:noinline
func burn(n int) int {
	acc := 0
	for i := 0; i < n; i++ {
		acc += i * i % 7
	}
	return acc
}

// TestCollectorRoundTrip exercises the full loop the simulator uses:
// collect real profiles under cell labels, then decode them with our
// parser and check structure, labels and rollups.
func TestCollectorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCollector(dir, []string{"cpu", "heap", "allocs"})
	if Active() {
		t.Fatal("Active before Start")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if !Active() {
		t.Fatal("not Active after Start")
	}
	sink := 0
	var escape [][]byte
	DoCell("HEBD", "websearch", 42, func(ctx context.Context) {
		SetPhase(ctx, PhaseSteps)
		for i := 0; i < 400; i++ {
			sink += burn(200_000)
			escape = append(escape, make([]byte, 4096))
		}
		SetPhase(ctx, PhaseFinish)
	})
	DoPhase(PhaseCharacterize, func() {
		for i := 0; i < 200; i++ {
			sink += burn(200_000)
		}
	})
	_ = sink
	_ = escape
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if Active() {
		t.Fatal("still Active after Stop")
	}

	for _, kind := range []string{"cpu", "heap", "allocs"} {
		if _, err := os.Stat(filepath.Join(dir, Dir, FileName(kind))); err != nil {
			t.Fatalf("missing %s artifact: %v", kind, err)
		}
	}

	cpu, err := ParseFile(filepath.Join(dir, Dir, FileName("cpu")))
	if err != nil {
		t.Fatalf("parse cpu: %v", err)
	}
	if len(cpu.SampleTypes) == 0 {
		t.Fatal("cpu profile has no sample types")
	}
	idx, err := cpu.SampleTypeIndex("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if unit := cpu.SampleTypes[idx].Unit; unit != "nanoseconds" {
		t.Fatalf("cpu unit = %q", unit)
	}
	// The workload above burns ~hundreds of ms, so samples must exist and
	// mostly carry the cell labels.
	if len(cpu.Samples) == 0 {
		t.Skip("no CPU samples captured (starved CI runner)")
	}
	var sawBurn, sawLabels, sawPhase bool
	for _, s := range cpu.Samples {
		for _, fn := range cpu.Stack(s) {
			if strings.Contains(fn, "burn") {
				sawBurn = true
			}
		}
		if s.Labels[LabelScheme] == "HEBD" && s.Labels[LabelWorkload] == "websearch" &&
			s.Labels[LabelSeed] == "42" && s.Labels[LabelPhase] == PhaseSteps {
			sawLabels = true
		}
		if s.Labels[LabelPhase] == PhaseCharacterize && s.Labels[LabelScheme] == "" {
			sawPhase = true
		}
	}
	if !sawBurn {
		t.Error("burn frame not found in any CPU stack")
	}
	if !sawLabels {
		t.Error("no sample carries the full cell label set in phase=steps")
	}
	if !sawPhase {
		t.Error("no sample carries DoPhase's phase=characterize label alone")
	}

	allocs, err := ParseFile(filepath.Join(dir, Dir, FileName("allocs")))
	if err != nil {
		t.Fatalf("parse allocs: %v", err)
	}
	if _, err := allocs.SampleTypeIndex("alloc_space"); err != nil {
		t.Fatal(err)
	}
	r, err := NewRollup([]*Profile{allocs}, "alloc_space", "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Total <= 0 {
		t.Fatalf("allocs rollup total = %d", r.Total)
	}
	if len(r.Top(5)) == 0 {
		t.Fatal("allocs rollup has no frames")
	}
}

func TestSetPhaseNilCtx(t *testing.T) {
	SetPhase(nil, PhaseSteps) // must not panic when profiling is off
}

func TestDoPhaseInactiveRunsOnce(t *testing.T) {
	calls := 0
	DoPhase(PhaseTrace, func() { calls++ })
	if calls != 1 {
		t.Fatalf("DoPhase ran fn %d times with profiling off, want 1", calls)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.pb.gz")
	if err := os.WriteFile(bad, []byte("{\"not\": \"a profile\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(bad); err == nil {
		t.Fatal("want parse error for garbage file")
	}
}

func TestCollectorStartTwice(t *testing.T) {
	c := NewCollector(t.TempDir(), []string{"heap"})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
}

package heb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
)

// flightArtifacts collects every artifact file a capture wrote.
func flightArtifacts(t *testing.T, c *obs.Capture) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// flightProto is the shared configuration of the kill/resume and replay
// tests: flight recorder at every slot, probes on, fresh capture.
func flightProto(seed int64) Prototype {
	p := DefaultPrototype()
	p.Seed = seed
	p.Capture = obs.NewCapture()
	p.ProbeEvery = 60
	p.CheckpointEvery = 1
	return p
}

// TestKillAndResumeByteIdentical is the headline crash-recovery
// guarantee: interrupt a run at an arbitrary step, resume from the last
// checkpoint, and the Result plus every observability artifact —
// events, decisions, probes, metrics and the checkpoint chain itself —
// come out byte-identical to the run that was never interrupted.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const d = 2 * time.Hour
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	// Kill points: a slot boundary, mid-slot, and deep into the run.
	cases := []struct {
		seed     int64
		killStep int
	}{
		{seed: 1, killStep: 3000},
		{seed: 7, killStep: 3457},
		{seed: 42, killStep: 6601},
	}
	for _, tc := range cases {
		wl := pr.WithDuration(d)

		full := flightProto(tc.seed)
		wantRes, err := full.Run(HEBD, wl, RunOptions{Duration: d})
		if err != nil {
			t.Fatalf("seed %d: full run: %v", tc.seed, err)
		}
		want := flightArtifacts(t, full.Capture)

		killed := flightProto(tc.seed)
		var records []obs.CheckpointRecord
		_, err = killed.Run(HEBD, wl, RunOptions{
			Duration:       d,
			MaxSteps:       tc.killStep,
			CheckpointSink: func(r obs.CheckpointRecord) { records = append(records, r) },
		})
		if err != nil {
			t.Fatalf("seed %d: killed run: %v", tc.seed, err)
		}
		if len(records) == 0 {
			t.Fatalf("seed %d: killed run left no checkpoints", tc.seed)
		}

		resumed := flightProto(tc.seed)
		gotRes, err := resumed.Run(HEBD, wl, RunOptions{
			Duration:          d,
			ResumeCheckpoints: records,
		})
		if err != nil {
			t.Fatalf("seed %d: resumed run: %v", tc.seed, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("seed %d: resumed Result differs:\n got %+v\nwant %+v", tc.seed, gotRes, wantRes)
		}
		got := flightArtifacts(t, resumed.Capture)
		if len(got) != len(want) {
			t.Errorf("seed %d: artifact sets differ: got %d files, want %d", tc.seed, len(got), len(want))
		}
		for name, wb := range want {
			if !bytes.Equal(got[name], wb) {
				t.Errorf("seed %d: %s differs between full and resumed run", tc.seed, name)
			}
		}
	}
}

// TestResumeAtKeyframeBoundary kills a run at two points of its chain
// (after 9 and after 6 records, where the retired delta format put its
// second keyframe and a mid-chain delta). Both resumes must extend into
// the same byte-identical artifacts as the uninterrupted run.
func TestResumeAtKeyframeBoundary(t *testing.T) {
	const d = 2 * time.Hour
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl := pr.WithDuration(d)

	full := flightProto(42)
	wantRes, err := full.Run(HEBD, wl, RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	want := flightArtifacts(t, full.Capture)

	// CheckpointEvery=1 on a 2h run records slots 1..12.
	cases := []struct {
		name     string
		killStep int // kill after this many steps
		records  int // chain length at the kill
	}{
		{"last record is the chain's second keyframe", 9*600 + 1, 9},
		{"last record is a mid-chain delta", 6*600 + 1, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			killed := flightProto(42)
			var records []obs.CheckpointRecord
			if _, err := killed.Run(HEBD, wl, RunOptions{
				Duration:       d,
				MaxSteps:       tc.killStep,
				CheckpointSink: func(r obs.CheckpointRecord) { records = append(records, r) },
			}); err != nil {
				t.Fatal(err)
			}
			if len(records) != tc.records {
				t.Fatalf("killed run left %d records, want %d", len(records), tc.records)
			}

			resumed := flightProto(42)
			gotRes, err := resumed.Run(HEBD, wl, RunOptions{Duration: d, ResumeCheckpoints: records})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("resumed Result differs:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			got := flightArtifacts(t, resumed.Capture)
			for name, wb := range want {
				if !bytes.Equal(got[name], wb) {
					t.Errorf("%s differs between full and resumed run", name)
				}
			}
		})
	}
}

// TestReplayMatchesFromScratch is the time-travel guarantee for three
// representative cells: fast-forwarding from a checkpoint and
// re-executing a slot window produces the same Result and byte-identical
// artifacts as running the same window from scratch.
func TestReplayMatchesFromScratch(t *testing.T) {
	const (
		d        = 2 * time.Hour
		a, b     = 5, 6 // replayed control slots
		slotStep = 600
	)
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl := pr.WithDuration(d)
	for _, id := range []SchemeID{HEBD, HEBF, SCFirst} {
		scratch := flightProto(42)
		var records []obs.CheckpointRecord
		wantRes, err := scratch.Run(id, wl, RunOptions{
			Duration:       d,
			MaxSteps:       b * slotStep,
			CheckpointSink: func(r obs.CheckpointRecord) { records = append(records, r) },
		})
		if err != nil {
			t.Fatalf("%s: from-scratch run: %v", id, err)
		}
		want := flightArtifacts(t, scratch.Capture)

		// Resume from the last checkpoint at or before the window start.
		idx := -1
		for i, r := range records {
			if r.Slot <= a-1 {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("%s: no checkpoint at or before slot %d", id, a-1)
		}
		replayed := flightProto(42)
		gotRes, err := replayed.Run(id, wl, RunOptions{
			Duration:          d,
			MaxSteps:          b * slotStep,
			ResumeCheckpoints: records[:idx+1],
		})
		if err != nil {
			t.Fatalf("%s: replay run: %v", id, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: replay Result differs:\n got %+v\nwant %+v", id, gotRes, wantRes)
		}
		got := flightArtifacts(t, replayed.Capture)
		for name, wb := range want {
			if !bytes.Equal(got[name], wb) {
				t.Errorf("%s: %s differs between from-scratch and replay", id, name)
			}
		}
	}
}

// TestCheckpointsDeterministicAcrossWorkers extends the worker-identity
// guarantee to the checkpoint chain: a sweep's checkpoints.jsonl is
// byte-identical whether cells ran on one worker or four.
func TestCheckpointsDeterministicAcrossWorkers(t *testing.T) {
	sweep := func(workers int) map[string][]byte {
		p := DefaultPrototype()
		p.Capture = obs.NewCapture()
		p.CheckpointEvery = 2
		_, err := MultiSeedComparison(p, MultiSeedOptions{
			Seeds:    2,
			Duration: 40 * time.Minute,
			Workload: "PR",
			Schemes:  []SchemeID{BaOnly, HEBD},
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return flightArtifacts(t, p.Capture)
	}
	seq := sweep(1)
	par := sweep(4)
	if _, ok := seq["checkpoints.jsonl"]; !ok {
		t.Fatal("sweep wrote no checkpoints.jsonl")
	}
	for name, want := range seq {
		if !bytes.Equal(par[name], want) {
			t.Errorf("%s differs between workers=1 and workers=4", name)
		}
	}
	// The chain file the capture wrote must itself validate.
	records, err := obs.ReadCheckpoints(bytes.NewReader(seq["checkpoints.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCheckpoints(records); err != nil {
		t.Fatal(err)
	}
}

// TestChainIndependentOfHooks pins what makes replay-based resume
// possible: a checkpoint records engine state only, so a chain recorded
// into a bare sink is byte-identical to one recorded with capture,
// probes, audit, alerts and the tracer all on.
func TestChainIndependentOfHooks(t *testing.T) {
	const d = 2 * time.Hour
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl := pr.WithDuration(d)
	chain := func(p Prototype, id SchemeID) []byte {
		t.Helper()
		var records []obs.CheckpointRecord
		if _, err := p.Run(id, wl, RunOptions{
			Duration:       d,
			CheckpointSink: func(r obs.CheckpointRecord) { records = append(records, r) },
		}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, records); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, id := range []SchemeID{HEBD, BaOnly, HEBS} {
		bare := DefaultPrototype()
		bare.CheckpointEvery = 1
		hooked := flightProto(42)
		hooked.Audit = obs.AuditModeReport
		hooked.Alert = alerts.ModeReport
		hooked.Tracer = obs.NewTracer()
		want, got := chain(bare, id), chain(hooked, id)
		if len(want) == 0 {
			t.Fatalf("%s: sink-only run recorded no chain", id)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: chain recorded with every hook on differs from the sink-only chain", id)
		}
	}
}

// TestResumeRejectsForeignChain checks that a resume proves it is
// continuing the run that recorded the chain: a seed-42 chain resumed at
// seed 43, at another budget or at another cadence fails, naming the
// first slot where the two runs' records differ.
func TestResumeRejectsForeignChain(t *testing.T) {
	const d = time.Hour
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl := pr.WithDuration(d)
	record := func(p Prototype) []obs.CheckpointRecord {
		t.Helper()
		var records []obs.CheckpointRecord
		if _, err := p.Run(HEBD, wl, RunOptions{
			Duration:       d,
			CheckpointSink: func(r obs.CheckpointRecord) { records = append(records, r) },
		}); err != nil {
			t.Fatal(err)
		}
		return records
	}
	base := DefaultPrototype()
	base.CheckpointEvery = 1
	chain := record(base)

	otherSeed := base
	otherSeed.Seed = 43
	otherBudget := base
	otherBudget.Budget = 238
	otherCadence := base
	otherCadence.CheckpointEvery = 2
	for _, tc := range []struct {
		name string
		p    Prototype
	}{{"seed 43", otherSeed}, {"budget 238 W", otherBudget}, {"every 2 slots", otherCadence}} {
		// The first slot at which the foreign run's records differ.
		foreign := record(tc.p)
		slot := -1
		for i := range chain {
			if i >= len(foreign) || foreign[i].Hash != chain[i].Hash {
				slot = min(chain[i].Slot, foreign[i].Slot)
				break
			}
		}
		if slot < 0 {
			t.Fatalf("%s: the foreign run recorded the same chain", tc.name)
		}
		var sunk int
		_, err := tc.p.Run(HEBD, wl, RunOptions{
			Duration:          d,
			ResumeCheckpoints: chain,
			CheckpointSink:    func(obs.CheckpointRecord) { sunk++ },
		})
		want := fmt.Sprintf("diverges at slot %d:", slot)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: resume error %v, want one containing %q", tc.name, err, want)
		}
		if sunk != 0 {
			t.Errorf("%s: a rejected resume sank %d records", tc.name, sunk)
		}
	}
	if _, err := base.Run(HEBD, wl, RunOptions{Duration: d / 2, ResumeCheckpoints: chain}); err == nil {
		t.Error("resuming into a run shorter than the chain succeeded")
	}
}

// TestResumeComposesWithCheckerAndTracer: a resumed run re-simulates
// from the seed, so the invariant checker's per-step state is rebuilt
// from step 0 and every capture artifact — audits.jsonl and alerts.jsonl
// included — is byte-identical to the uninterrupted run's. The
// wall-clock trace keeps its structure: one run span on the same track.
func TestResumeComposesWithCheckerAndTracer(t *testing.T) {
	const d = 2 * time.Hour
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl := pr.WithDuration(d)
	proto := func() Prototype {
		p := flightProto(42)
		p.Audit = obs.AuditModeReport
		p.Alert = alerts.ModeReport
		// A ceiling below the starting SoC makes alerts fire.
		p.AlertRules = alerts.Rules{SoCCeiling: 0.5}
		p.Tracer = obs.NewTracer()
		return p
	}
	full := proto()
	wantRes, err := full.Run(HEBD, wl, RunOptions{Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	want := flightArtifacts(t, full.Capture)
	for _, name := range []string{"audits.jsonl", "alerts.jsonl"} {
		if len(want[name]) == 0 {
			t.Fatalf("uninterrupted run wrote no %s", name)
		}
	}

	killed := proto()
	var records []obs.CheckpointRecord
	if _, err := killed.Run(HEBD, wl, RunOptions{
		Duration:       d,
		MaxSteps:       3457,
		CheckpointSink: func(r obs.CheckpointRecord) { records = append(records, r) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("killed run left no checkpoints")
	}

	resumed := proto()
	var sunk []obs.CheckpointRecord
	gotRes, err := resumed.Run(HEBD, wl, RunOptions{
		Duration:          d,
		ResumeCheckpoints: records,
		CheckpointSink:    func(r obs.CheckpointRecord) { sunk = append(sunk, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("resumed Result differs:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	got := flightArtifacts(t, resumed.Capture)
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("%s differs between full and resumed run", name)
		}
	}
	if !reflect.DeepEqual(traceShape(resumed.Tracer), traceShape(full.Tracer)) {
		t.Error("trace structure differs between full and resumed run")
	}
	// Only the records past the carried chain go to the sink.
	chain := append(append([]obs.CheckpointRecord(nil), records...), sunk...)
	if all := full.Capture.Runs()[0].Checkpoints; !reflect.DeepEqual(stripRun(chain), stripRun(all)) {
		t.Errorf("carried %d + sunk %d records do not make up the uninterrupted chain of %d", len(records), len(sunk), len(all))
	}
}

// stripRun clears the late-stamped run labels so chains from a sink and
// from a capture compare equal.
func stripRun(records []obs.CheckpointRecord) []obs.CheckpointRecord {
	out := append([]obs.CheckpointRecord(nil), records...)
	for i := range out {
		out[i].Run = ""
	}
	return out
}

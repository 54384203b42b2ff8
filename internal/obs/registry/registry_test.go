package registry

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heb/internal/obs"
)

// corrupt truncates a file to unparsable junk.
func corrupt(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// artifact builds a small synthetic run artifact whose decisions and
// metrics depend on seed so different seeds genuinely diverge.
func artifact(scheme string, seed int64) obs.RunArtifact {
	key := scheme + "|PR|1h|seed=" + string(rune('0'+seed)) + "|cfg=0011223344556677"
	mode := "split"
	if seed%2 == 0 {
		mode = "battery-only"
	}
	return obs.RunArtifact{
		Key: key,
		Events: []obs.Event{
			{Seconds: 0, Kind: obs.EventRunStart, Server: -1, Detail: scheme},
		},
		Decisions: []obs.DecisionRecord{
			{Slot: 1, Mode: "split", Ratio: 0.5, Completed: true},
			{Slot: 2, Mode: mode, Ratio: 0.5 + float64(seed)/10, Completed: true},
		},
		Steps: 3600,
		Slots: 2,
		Metrics: map[string]float64{
			"energy_efficiency": 0.8 + float64(seed)/100,
			"downtime_fraction": 0,
		},
	}
}

// writeCapture lands a complete capture of the given artifacts at dir.
func writeCapture(t *testing.T, dir, label string, arts ...obs.RunArtifact) obs.Manifest {
	t.Helper()
	c := obs.NewCapture()
	c.SetLabel(label)
	for _, a := range arts {
		c.Contribute(a)
	}
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScanAndQuery(t *testing.T) {
	root := t.TempDir()
	m := writeCapture(t, filepath.Join(root, "sweep"), "all",
		artifact("HEB-D", 1), artifact("BaOnly", 1))
	if err := obs.StartManifest(filepath.Join(root, "live"), "run"); err != nil {
		t.Fatal(err)
	}

	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("scan errors: %v", errs)
	}

	caps := r.Captures()
	if len(caps) != 2 || caps[0].Dir != "live" || caps[1].Dir != "sweep" {
		t.Fatalf("captures = %+v", caps)
	}
	if caps[1].Runs != 2 || caps[1].Status != obs.StatusComplete || caps[1].Bytes == 0 {
		t.Fatalf("sweep capture = %+v", caps[1])
	}
	if caps[0].Status != obs.StatusRunning {
		t.Fatalf("live capture = %+v", caps[0])
	}

	all := r.Runs(Filter{})
	if len(all) != 3 {
		t.Fatalf("got %d runs, want 3 (2 complete + 1 placeholder)", len(all))
	}
	hebd := r.Runs(Filter{Scheme: "HEB-D"})
	if len(hebd) != 1 || hebd[0].Scheme != "HEB-D" || hebd[0].Capture != "sweep" {
		t.Fatalf("scheme filter = %+v", hebd)
	}
	running := r.Runs(Filter{Status: obs.StatusRunning})
	if len(running) != 1 || running[0].Capture != "live" || running[0].Label != "run" {
		t.Fatalf("status filter = %+v", running)
	}

	got, ok := r.Find(m.Runs[0].ID)
	if !ok || got.Key != m.Runs[0].Key {
		t.Fatalf("Find(%q) = %+v, %v", m.Runs[0].ID, got, ok)
	}
	if _, ok := r.Find("nope"); ok {
		t.Fatal("Find of unknown id succeeded")
	}
}

func TestScanTolerantOfBadManifest(t *testing.T) {
	root := t.TempDir()
	writeCapture(t, filepath.Join(root, "good"), "run", artifact("HEB-D", 1))
	bad := filepath.Join(root, "bad")
	if err := obs.StartManifest(bad, "x"); err != nil {
		t.Fatal(err)
	}
	corrupt(t, filepath.Join(bad, obs.ManifestName))

	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	if len(r.Captures()) != 1 {
		t.Fatalf("captures = %+v", r.Captures())
	}
	if errs := r.Errors(); len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
}

func TestCompareDivergentSeeds(t *testing.T) {
	root := t.TempDir()
	m := writeCapture(t, filepath.Join(root, "sweep"), "all",
		artifact("HEB-D", 1), artifact("HEB-D", 2))
	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}

	cmp, err := r.Compare(m.Runs[0].ID, m.Runs[1].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SameConfig || cmp.Identical {
		t.Fatalf("different seeds reported as same config: %+v", cmp)
	}
	if len(cmp.MetricDeltas) == 0 {
		t.Fatal("expected nonzero metric deltas for different seeds")
	}
	found := false
	for _, d := range cmp.MetricDeltas {
		if d.Name == "energy_efficiency" && d.Delta != 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("energy_efficiency delta missing: %+v", cmp.MetricDeltas)
	}
	if cmp.DecisionDiffs == 0 || len(cmp.DecisionSample) == 0 {
		t.Fatalf("expected decision divergence, got %d diffs", cmp.DecisionDiffs)
	}
	if len(cmp.SummaryDiffs) == 0 {
		t.Fatal("expected summary field diffs")
	}
}

func TestCompareIdenticalRun(t *testing.T) {
	root := t.TempDir()
	m := writeCapture(t, filepath.Join(root, "sweep"), "all", artifact("HEB-D", 1))
	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}

	id := m.Runs[0].ID
	cmp, err := r.Compare(id, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.SameConfig || !cmp.Identical {
		t.Fatalf("self-compare not identical: %+v", cmp)
	}
	if len(cmp.MetricDeltas) != 0 || len(cmp.SummaryDiffs) != 0 || cmp.DecisionDiffs != 0 {
		t.Fatalf("self-compare produced diffs: %+v", cmp)
	}
}

func TestCompareAcrossCaptures(t *testing.T) {
	root := t.TempDir()
	ma := writeCapture(t, filepath.Join(root, "a"), "run", artifact("HEB-D", 1))
	mb := writeCapture(t, filepath.Join(root, "b"), "run", artifact("HEB-D", 3))
	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	cmp, err := r.Compare(ma.Runs[0].ID, mb.Runs[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.A.Capture != "a" || cmp.B.Capture != "b" {
		t.Fatalf("captures = %q, %q", cmp.A.Capture, cmp.B.Capture)
	}
	if len(cmp.MetricDeltas) == 0 {
		t.Fatal("expected metric deltas across captures")
	}
}

func TestComparePlaceholderRejected(t *testing.T) {
	root := t.TempDir()
	m := writeCapture(t, filepath.Join(root, "sweep"), "all", artifact("HEB-D", 1))
	if err := obs.StartManifest(filepath.Join(root, "live"), "run"); err != nil {
		t.Fatal(err)
	}
	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	ph := r.Runs(Filter{Status: obs.StatusRunning})
	if len(ph) != 1 {
		t.Fatalf("placeholders = %+v", ph)
	}
	if _, err := r.Compare(m.Runs[0].ID, ph[0].ID, 0); err == nil {
		t.Fatal("comparing against a placeholder should fail")
	}
}

func TestWatchRescans(t *testing.T) {
	root := t.TempDir()
	r := New(root)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.Watch(ctx, time.Millisecond)
		close(done)
	}()
	writeCapture(t, filepath.Join(root, "late"), "run", artifact("HEB-D", 1))
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Runs(Filter{})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watch never picked up the new capture")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

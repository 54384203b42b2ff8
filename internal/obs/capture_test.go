package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func artifactA() RunArtifact {
	return RunArtifact{
		Key: "HEB-D|PR|1h|seed=1",
		Events: []Event{
			{Seconds: 0, Kind: EventRunStart, Server: -1, Detail: "HEB-D"},
			{Seconds: 3600, Kind: EventRunEnd, Server: -1},
		},
		Decisions:     []DecisionRecord{sampleRecord(1, "split", 0.6)},
		Steps:         3600,
		MismatchSteps: 40,
		Slots:         6,
		RelaySwitches: map[string]int64{"battery": 3, "off": 1},
		PATLookups:    6,
		PATMisses:     2,
	}
}

func artifactB() RunArtifact {
	return RunArtifact{
		Key: "BaOnly|PR|1h|seed=1",
		Events: []Event{
			{Seconds: 0, Kind: EventRunStart, Server: -1, Detail: "BaOnly"},
		},
		Decisions: []DecisionRecord{sampleRecord(1, "battery-only", 0)},
		Steps:     3600,
		Slots:     6,
	}
}

func captureFiles(t *testing.T, contribute func(*Capture)) map[string]string {
	t.Helper()
	dir := t.TempDir()
	c := NewCapture()
	contribute(c)
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, name := range []string{"events.jsonl", "decisions.jsonl", "metrics.prom"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

func TestCaptureOrderIndependence(t *testing.T) {
	ab := captureFiles(t, func(c *Capture) {
		c.Contribute(artifactA())
		c.Contribute(artifactB())
	})
	ba := captureFiles(t, func(c *Capture) {
		c.Contribute(artifactB())
		c.Contribute(artifactA())
	})
	var wg sync.WaitGroup
	par := captureFiles(t, func(c *Capture) {
		for _, a := range []RunArtifact{artifactA(), artifactB()} {
			wg.Add(1)
			go func(a RunArtifact) {
				defer wg.Done()
				c.Contribute(a)
			}(a)
		}
		wg.Wait()
	})
	for name := range ab {
		if ab[name] != ba[name] {
			t.Errorf("%s differs between contribution orders", name)
		}
		if ab[name] != par[name] {
			t.Errorf("%s differs under concurrent contribution", name)
		}
	}
}

func TestCaptureStampsRunKeys(t *testing.T) {
	files := captureFiles(t, func(c *Capture) { c.Contribute(artifactA()) })
	events, err := ReadJSONL[Event](bytes.NewBufferString(files["events.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Run != "HEB-D|PR|1h|seed=1" {
			t.Fatalf("event missing run stamp: %+v", e)
		}
	}
	decisions, err := ReadJSONL[DecisionRecord](bytes.NewBufferString(files["decisions.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0].Run != "HEB-D|PR|1h|seed=1" {
		t.Fatalf("decisions = %+v", decisions)
	}
}

func TestCaptureMetricsContent(t *testing.T) {
	files := captureFiles(t, func(c *Capture) {
		c.Contribute(artifactA())
		c.Contribute(artifactB())
	})
	prom := files["metrics.prom"]
	for _, want := range []string{
		"heb_capture_runs_total 2",
		"heb_engine_steps_total 7200",
		"heb_engine_mismatch_steps_total 40",
		"heb_control_slots_total 12",
		`heb_power_relay_switches_total{position="battery"} 3`,
		`heb_power_relay_switches_total{position="off"} 1`,
		`heb_obs_events_total{kind="run_start"} 2`,
		"heb_pat_lookups_total 6",
		"heb_pat_misses_total 2",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics.prom missing %q\n%s", want, prom)
		}
	}
}

// TestEventCapFor checks that the per-run event cap grows with simulated
// length and never falls below DefaultEventCap.
func TestEventCapFor(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, DefaultEventCap},
		{time.Hour, DefaultEventCap},
		{5 * time.Hour, DefaultEventCap},
		{24 * time.Hour, 24 * eventCapPerHour},
		{168 * time.Hour, 168 * eventCapPerHour},
	} {
		if got := EventCapFor(c.d); got != c.want {
			t.Errorf("EventCapFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestCaptureEventCap checks that a run's events past DefaultEventCap
// are counted, not stored, and that the count reaches both the metrics
// counter and the run's manifest row.
func TestCaptureEventCap(t *testing.T) {
	l := NewLog(DefaultEventCap)
	for i := 0; i < DefaultEventCap+7; i++ {
		l.Emit(Event{Seconds: float64(i), Kind: EventRelaySwitch})
	}
	if l.Len() != DefaultEventCap || l.Dropped() != 7 {
		t.Fatalf("log kept %d and dropped %d events, want %d and 7", l.Len(), l.Dropped(), DefaultEventCap)
	}
	a := artifactA()
	a.Events, a.EventsDropped = l.Events(), l.Dropped()
	files := captureFiles(t, func(c *Capture) { c.Contribute(a) })
	if !strings.Contains(files["metrics.prom"], "heb_obs_events_dropped_total 7") {
		t.Errorf("metrics.prom does not count the 7 dropped events:\n%s", files["metrics.prom"])
	}
	c := NewCapture()
	c.Contribute(a)
	if m := c.BuildManifest(); len(m.Runs) != 1 || m.Runs[0].Summary.EventsDropped != 7 {
		t.Errorf("manifest runs %+v, want one row with 7 events dropped", m.Runs)
	}
}

// TestRunsOrderMatchesManifest: Runs fingerprints only the runs whose
// key ties another's, yet puts every run in the order BuildManifest's
// fully fingerprinted sort gives, for any contribution order.
func TestRunsOrderMatchesManifest(t *testing.T) {
	var runs []RunArtifact
	for i, steps := range []int64{7, 3, 5} {
		a := artifactA()
		a.Steps = steps
		a.Slots = int64(i)
		runs = append(runs, a)
	}
	runs = append(runs, artifactB())
	c1 := artifactB()
	c1.Key = "SCFirst|PR|1h|seed=1"
	runs = append(runs, c1)
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 2, 3, 0, 1}, {1, 4, 0, 3, 2}} {
		c := NewCapture()
		for _, i := range order {
			c.Contribute(runs[i])
		}
		m := c.BuildManifest()
		got := c.Runs()
		if len(got) != len(m.Runs) {
			t.Fatalf("order %v: Runs has %d runs, manifest %d", order, len(got), len(m.Runs))
		}
		for i, a := range got {
			if id := RunID(a.Key, referenceFingerprint(a)); id != m.Runs[i].ID {
				t.Errorf("order %v: Runs()[%d] is %s %s, manifest row is %s %s", order, i, a.Key, id, m.Runs[i].Key, m.Runs[i].ID)
			}
		}
	}
}

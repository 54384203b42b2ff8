package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"heb"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
)

// writeCapture records one real HEB-D run (probes + audit + alerts on)
// into dir. The tight SoC ceiling guarantees the rule engine fires, so
// the capture always carries an alerts.jsonl to validate.
func writeCapture(t *testing.T, dir string) {
	t.Helper()
	p := heb.DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.Capture.SetLabel("hebobs-check-test")
	p.ProbeEvery = 300
	p.Audit = obs.AuditModeReport
	p.Alert = alerts.ModeReport
	p.AlertRules = alerts.Rules{SoCCeiling: 0.5}
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	const d = 2 * time.Hour
	if _, err := p.Run(heb.HEBD, wl.WithDuration(d), heb.RunOptions{Duration: d}); err != nil {
		t.Fatal(err)
	}
	if err := p.Capture.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAcceptsCompleteCapture(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	inv, runs, err := check(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inv, "manifest v1 complete (1 runs") {
		t.Errorf("inventory missing manifest summary: %q", inv)
	}
	if len(runs) != 1 || runs[0].Bytes <= 0 {
		t.Fatalf("run rows = %+v, want one with positive bytes", runs)
	}
}

// TestCheckRejectsMissingManifest checks that a capture without
// manifest.json is a finding: every capture hebsim writes has one.
func TestCheckRejectsMissingManifest(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	if err := os.Remove(filepath.Join(dir, obs.ManifestName)); err != nil {
		t.Fatal(err)
	}
	_, runs, err := check(dir, false)
	if err == nil || !strings.Contains(err.Error(), obs.ManifestName) || runs != nil {
		t.Fatalf("capture without a manifest accepted: %v, %v", err, runs)
	}
}

func TestCheckRejectsIncompleteStatus(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	if err := obs.SetManifestStatus(dir, obs.StatusKilled); err != nil {
		t.Fatal(err)
	}
	_, _, err := check(dir, false)
	if err == nil || !strings.Contains(err.Error(), `status "killed"`) {
		t.Fatalf("killed capture accepted: %v", err)
	}
}

func TestCheckRejectsTamperedArtifact(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	path := filepath.Join(dir, "metrics.prom")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, "# tampered\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "manifest says") {
		t.Fatalf("tampered artifact accepted: %v", err)
	}
}

// TestCheckRejectsShortInventoryHash pins the mismatch report for a
// manifest hash shorter than the 12 characters the message abbreviates
// to: it must be reported, not sliced out of range.
func TestCheckRejectsShortInventoryHash(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Artifacts[0].SHA256 = "abc"
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "manifest says abc") {
		t.Fatalf("short inventory hash accepted: %v", err)
	}
}

// TestCheckRejectsForeignArtifactEntry holds the artifact inventory to
// the capture's own file names: an entry that reaches outside the
// capture is refused even when its size and hash match.
func TestCheckRejectsForeignArtifactEntry(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "capture")
	writeCapture(t, dir)
	body := []byte("not part of the capture\n")
	if err := os.WriteFile(filepath.Join(root, "outside.txt"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	m.Artifacts = append(m.Artifacts, obs.ArtifactInfo{
		Name: "../outside.txt", Bytes: int64(len(body)), SHA256: hex.EncodeToString(sum[:])})
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := check(dir, false); err == nil || !strings.Contains(err.Error(), "../outside.txt") {
		t.Fatalf("inventory entry outside the capture accepted: %v", err)
	}
}

func TestCheckRejectsUninventoriedArtifact(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := m.Artifacts[:0]
	for _, a := range m.Artifacts {
		if a.Name != "probes.jsonl" {
			kept = append(kept, a)
		}
	}
	m.Artifacts = kept
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "missing from the inventory") {
		t.Fatalf("uninventoried artifact accepted: %v", err)
	}
}

func TestCheckAcceptsAlertedCapture(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	if _, err := os.Stat(filepath.Join(dir, "alerts.jsonl")); err != nil {
		t.Fatalf("capture wrote no alerts.jsonl: %v", err)
	}
	inv, runs, err := check(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inv, "alert events") {
		t.Errorf("inventory missing alert events: %q", inv)
	}
	if len(runs) != 1 || runs[0].Summary.Health != alerts.HealthWarn || runs[0].Summary.AlertWarnings == 0 {
		t.Fatalf("run rows = %+v, want one with warn health", runs)
	}
}

// TestCheckNamesRunsThatDroppedEvents checks the dropped-events finding:
// it names each run past the per-run event cap, from the manifest rows,
// and the -allow-drops flag, and the flag turns it off.
func TestCheckNamesRunsThatDroppedEvents(t *testing.T) {
	dir := t.TempDir()
	c := obs.NewCapture()
	for i, dropped := range []int{0, 12, 3} {
		c.Contribute(obs.RunArtifact{
			Key:           fmt.Sprintf("HEB-D|PR|1h|seed=%d", i),
			Events:        []obs.Event{{Kind: obs.EventRunStart, Server: -1}},
			EventsDropped: dropped,
			Decisions:     []obs.DecisionRecord{{Slot: 1}},
			Steps:         3600,
			Slots:         6,
		})
	}
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	_, _, err := check(dir, false)
	if err == nil {
		t.Fatal("a capture with dropped events passed")
	}
	msg := err.Error()
	for _, want := range []string{"dropped 15 events", "dropped 12: HEB-D|PR|1h|seed=1", "dropped 3: HEB-D|PR|1h|seed=2", "-allow-drops"} {
		if !strings.Contains(msg, want) {
			t.Errorf("finding %q lacks %q", msg, want)
		}
	}
	if strings.Contains(msg, "seed=0") || strings.Contains(msg, "raise the cap") {
		t.Errorf("finding %q names a run that dropped nothing or a cap no flag raises", msg)
	}
	if _, _, err := check(dir, true); err != nil {
		t.Errorf("-allow-drops still fails: %v", err)
	}
}

func TestCheckRejectsCorruptAlerts(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	// Drop the manifest so the artifact-hash check cannot fire first; the
	// corruption must be caught by the alerts.jsonl reader itself.
	if err := os.Remove(filepath.Join(dir, obs.ManifestName)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alerts.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, `{"t":0,"kind":"no_such_rule","severity":"warn"}`+"\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "alerts.jsonl") {
		t.Fatalf("corrupt alerts.jsonl accepted: %v", err)
	}
}

func TestCheckRejectsDishonestHealth(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Runs[0].Summary.Health = alerts.HealthOK // warnings fired, verdict says clean
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "inconsistent with") {
		t.Fatalf("dishonest health verdict accepted: %v", err)
	}
}

func TestCheckRejectsWrongAlertCounts(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Runs[0].Summary.AlertWarnings++
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "alerts on disk") {
		t.Fatalf("wrong alert count accepted: %v", err)
	}
}

func TestCheckRejectsWrongRunCounts(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Runs[0].Summary.Decisions++
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	// Rewriting the manifest does not change the artifacts, so refresh the
	// inventory is not needed — manifest.json is never self-inventoried.
	_, _, err = check(dir, false)
	if err == nil || !strings.Contains(err.Error(), "decisions on disk") {
		t.Fatalf("wrong decision count accepted: %v", err)
	}
}

// writeProfiledCapture is writeCapture with the profiling collector
// wrapped around the run, then AttachProfiles to inventory the output.
func writeProfiledCapture(t *testing.T, dir string, kinds []string) {
	t.Helper()
	c := prof.NewCollector(dir, kinds)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	writeCapture(t, dir)
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := obs.AttachProfiles(dir); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAcceptsProfiledCapture(t *testing.T) {
	dir := t.TempDir()
	writeProfiledCapture(t, dir, []string{"cpu", "heap", "allocs"})
	inv, _, err := check(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inv, "3 profiles validated") {
		t.Errorf("inventory missing profile summary: %q", inv)
	}
}

func TestCheckRejectsTamperedProfile(t *testing.T) {
	dir := t.TempDir()
	writeProfiledCapture(t, dir, []string{"heap"})
	path := filepath.Join(dir, prof.Dir, prof.FileName("heap"))
	if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := check(dir, false); err == nil || !strings.Contains(err.Error(), "heap.pb.gz") {
		t.Fatalf("tampered profile accepted: %v", err)
	}
}

func TestCheckRejectsUninventoriedProfile(t *testing.T) {
	dir := t.TempDir()
	writeProfiledCapture(t, dir, []string{"heap"})
	// A second profile lands after AttachProfiles ran: the inventory is
	// now incomplete and the capture must fail validation.
	src, err := os.ReadFile(filepath.Join(dir, prof.Dir, prof.FileName("heap")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, prof.Dir, prof.FileName("allocs")), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := check(dir, false); err == nil || !strings.Contains(err.Error(), "missing from the profile inventory") {
		t.Fatalf("uninventoried profile accepted: %v", err)
	}
}

func TestCheckRejectsUnlabeledCPUProfile(t *testing.T) {
	dir := t.TempDir()
	writeProfiledCapture(t, dir, []string{"heap"})
	// A heap proto renamed cpu.pb.gz: it parses and has samples, but none
	// carry the cell labels only pprof.Do-wrapped CPU samples get.
	src, err := os.ReadFile(filepath.Join(dir, prof.Dir, prof.FileName("heap")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, prof.Dir, prof.FileName("cpu")), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := obs.AttachProfiles(dir); err != nil {
		t.Fatal(err)
	}
	p, err := prof.ParseFile(filepath.Join(dir, prof.Dir, prof.FileName("cpu")))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Skip("heap profile captured no samples; nothing to validate")
	}
	if _, _, err := check(dir, false); err == nil || !strings.Contains(err.Error(), "cell labels") {
		t.Fatalf("unlabeled cpu profile accepted: %v", err)
	}
}

func TestCheckRejectsForeignProfileEntry(t *testing.T) {
	dir := t.TempDir()
	writeProfiledCapture(t, dir, []string{"heap"})
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Profiles[0].Name = "profiles/bogus.pb.gz"
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := check(dir, false); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("foreign inventory entry accepted: %v", err)
	}
}

// writeChainJSONL writes records as dir's checkpoints.jsonl.
func writeChainJSONL(t *testing.T, dir string, records []obs.CheckpointRecord) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSONL(f, records); err != nil {
		t.Fatal(err)
	}
}

// inventoryFile points dir's manifest entry for name at the file's
// current size and SHA-256, adding the entry when there is none.
func inventoryFile(t *testing.T, dir, name string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	m.Artifacts = append(slices.DeleteFunc(m.Artifacts, func(a obs.ArtifactInfo) bool { return a.Name == name }),
		obs.ArtifactInfo{Name: name, Bytes: int64(len(raw)), SHA256: hex.EncodeToString(sum[:])})
	if err := obs.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsV1Chain holds hebobs check to the single checkpoint schema:
// a hand-built chain of the current version validates, while a v1 record
// is refused — and the command exits non-zero — even though its hash
// (SHA-256 over the header and the whole state) is correct. The chains
// carry no run key, so only the manifest's inventory has to follow them.
func TestCheckRejectsV1Chain(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir)
	key := obs.CheckpointRecord{V: obs.CheckpointVersion, Slot: 1, Step: 600, Seconds: 600, State: []byte(`{}`)}
	key.Hash = obs.HashCheckpoint(key)
	next := obs.CheckpointRecord{V: obs.CheckpointVersion, Slot: 2, Step: 1200, Seconds: 1200,
		State: []byte(`{}`), Prev: key.Hash}
	next.Hash = obs.HashCheckpoint(next)
	writeChainJSONL(t, dir, []obs.CheckpointRecord{key, next})
	inventoryFile(t, dir, "checkpoints.jsonl")
	inv, _, err := check(dir, false)
	if err != nil {
		t.Fatalf("current-version chain rejected: %v", err)
	}
	if !strings.Contains(inv, "2 checkpoints (chain intact)") {
		t.Errorf("inventory missing checkpoint summary: %q", inv)
	}

	v1 := obs.CheckpointRecord{V: 1, Slot: 1, Step: 600, Seconds: 600, State: []byte(`{}`)}
	h := sha256.New()
	fmt.Fprintf(h, "v=%d|slot=%d|step=%d|t=%g|prev=%s|", v1.V, v1.Slot, v1.Step, v1.Seconds, v1.Prev)
	h.Write(v1.State)
	v1.Hash = hex.EncodeToString(h.Sum(nil))
	writeChainJSONL(t, dir, []obs.CheckpointRecord{v1})
	if _, _, err := check(dir, false); err == nil || !strings.Contains(err.Error(), "unknown schema version 1") {
		t.Fatalf("v1 record accepted: %v", err)
	}
	out, code := runMain(t, "check", dir)
	if code != 1 || !strings.Contains(out, "unknown schema version 1") {
		t.Fatalf("hebobs check on a v1 chain: exit %d\n%s", code, out)
	}
}

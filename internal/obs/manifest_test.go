package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"heb/internal/obs/alerts"
)

// TestManifestLifecycle walks the full capture lifecycle a killed-and-
// resumed sweep goes through: StartManifest leaves a "running" marker, a
// later process finding it marks "killed", a fresh StartManifest takes
// over, and WriteFiles lands the complete manifest with the run index
// and artifact inventory.
func TestManifestLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Writer starts: status running, no runs yet.
	if err := StartManifest(dir, "all"); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusRunning || m.Label != "all" || len(m.Runs) != 0 {
		t.Fatalf("running manifest = %+v", m)
	}

	// Writer dies; the resume path finds "running" and marks killed.
	if err := SetManifestStatus(dir, StatusKilled); err != nil {
		t.Fatal(err)
	}
	if m, err = ReadManifest(dir); err != nil || m.Status != StatusKilled {
		t.Fatalf("killed transition: %+v, %v", m, err)
	}
	if m.Label != "all" {
		t.Fatalf("SetManifestStatus dropped label: %+v", m)
	}

	// The resume takes over and completes the capture.
	if err := StartManifest(dir, "all"); err != nil {
		t.Fatal(err)
	}
	c := NewCapture()
	c.SetLabel("all")
	c.Contribute(artifactA())
	c.Contribute(artifactB())
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err = ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusComplete || len(m.Runs) != 2 {
		t.Fatalf("complete manifest = %+v", m)
	}
	if len(m.Artifacts) == 0 {
		t.Fatal("complete manifest carries no artifact inventory")
	}
	for _, a := range m.Artifacts {
		if a.Name == ManifestName {
			t.Fatal("manifest inventories itself")
		}
		fi, err := os.Stat(filepath.Join(dir, a.Name))
		if err != nil || fi.Size() != a.Bytes {
			t.Fatalf("inventory %s: %v, size %d vs %d", a.Name, err, fi.Size(), a.Bytes)
		}
	}
}

// TestManifestRunRows pins the per-run index row content for a known
// artifact: parsed key fields, stable ID, counters and byte share.
func TestManifestRunRows(t *testing.T) {
	c := NewCapture()
	c.Contribute(artifactA())
	m := c.BuildManifest()
	if len(m.Runs) != 1 {
		t.Fatalf("%d runs", len(m.Runs))
	}
	rm := m.Runs[0]
	if rm.Scheme != "HEB-D" || rm.Workload != "PR" || rm.DurationSeconds != 3600 || rm.Seed != 1 {
		t.Errorf("parsed key fields: %+v", rm)
	}
	if rm.Status != StatusComplete || rm.Bytes <= 0 {
		t.Errorf("row status/bytes: %+v", rm)
	}
	if rm.Summary.Events != 2 || rm.Summary.Decisions != 1 || rm.Summary.Steps != 3600 {
		t.Errorf("summary counters: %+v", rm.Summary)
	}
	if rm.Summary.RelaySwitches != 4 {
		t.Errorf("relay switches = %d, want 4", rm.Summary.RelaySwitches)
	}
	if rm.ID == "" || len(rm.ID) != 12 {
		t.Errorf("run ID %q not 12 hex chars", rm.ID)
	}
	// Same artifact → same ID, every time.
	c2 := NewCapture()
	c2.Contribute(artifactA())
	if id2 := c2.BuildManifest().Runs[0].ID; id2 != rm.ID {
		t.Errorf("run ID unstable: %s vs %s", rm.ID, id2)
	}
}

// TestManifestDeterministicBytes checks the serialized manifest is
// byte-identical regardless of contribution order (the registry and the
// workers-determinism guarantee both lean on this).
func TestManifestDeterministicBytes(t *testing.T) {
	render := func(contribute func(*Capture)) []byte {
		c := NewCapture()
		contribute(c)
		raw, err := json.MarshalIndent(c.BuildManifest(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	ab := render(func(c *Capture) { c.Contribute(artifactA()); c.Contribute(artifactB()) })
	ba := render(func(c *Capture) { c.Contribute(artifactB()); c.Contribute(artifactA()) })
	if string(ab) != string(ba) {
		t.Error("manifest bytes depend on contribution order")
	}
}

// TestReadManifestRejectsNewerVersion pins the forward-compat contract.
func TestReadManifestRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{V: ManifestVersion + 1, Status: StatusComplete}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("newer-version manifest accepted")
	}
}

// TestWriteManifestLeavesNoTempFiles checks the atomic-install path
// cleans up after itself.
func TestWriteManifestLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := StartManifest(dir, ""); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != ManifestName {
		t.Fatalf("dir holds %v, want only %s", ents, ManifestName)
	}
}

// deepArtifact is a run carrying every optional artifact: probes, an
// audit, checkpoints and fired alerts.
func deepArtifact(key string, soc float64) RunArtifact {
	a := artifactA()
	a.Key = key
	a.Probes = []ProbeSample{
		{Seconds: 60, Device: "battery/0", SoC: soc, VoltageV: 12.6, PowerW: 40},
		{Seconds: 60, Device: "supercap/0", SoC: soc / 2, VoltageV: 15.1, PowerW: -12},
	}
	a.Audit = &AuditReport{Mode: "report", Steps: 3600, EnergyInWh: 100, EnergyOutWh: 99.5, Passed: true}
	a.Checkpoints = []CheckpointRecord{
		{V: CheckpointVersion, Slot: 1, Step: 600, Seconds: 600, State: json.RawMessage(`{"soc": 0.9}`), Hash: "h1"},
		{V: CheckpointVersion, Slot: 2, Step: 1200, Seconds: 1200, State: json.RawMessage(`{"soc":0.8}`), Prev: "h1", Hash: "h2"},
	}
	a.AlertEvents = []alerts.Event{{Seconds: 900, Kind: alerts.KindSoCFloor, Severity: alerts.SeverityCritical, Device: "battery/0", Value: soc, Limit: 0.99}}
	return a
}

// TestWriteFilesRemovesStaleArtifacts writes a capture with every
// optional artifact and then one without any into the same directory:
// the second removes the first one's optional files instead of
// inventorying them as its own.
func TestWriteFilesRemovesStaleArtifacts(t *testing.T) {
	dir := t.TempDir()
	deep := NewCapture()
	deep.Contribute(deepArtifact("HEB-D|PR|1h|seed=1", 0.7))
	if err := deep.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Artifacts) != len(ArtifactNames) {
		t.Fatalf("deep capture inventories %d files, want all %d", len(m.Artifacts), len(ArtifactNames))
	}
	plain := NewCapture()
	plain.Contribute(artifactA())
	if err := plain.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if m, err = ReadManifest(dir); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range m.Artifacts {
		names = append(names, a.Name)
	}
	if want := []string{"events.jsonl", "decisions.jsonl", "metrics.prom"}; !slices.Equal(names, want) {
		t.Errorf("inventory %v, want %v", names, want)
	}
	for _, name := range []string{"probes.jsonl", "audits.jsonl", "checkpoints.jsonl", "alerts.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s left behind (stat: %v)", name, err)
		}
	}
}

// TestRunBytesMatchWrittenArtifacts checks the byte accounting of a
// multi-run capture: the runs' bytes add up to every inventoried JSONL
// artifact (metrics.prom is aggregate), each inventory entry matches the
// file on disk, and BuildManifest equals the written manifest minus its
// inventory.
func TestRunBytesMatchWrittenArtifacts(t *testing.T) {
	c := NewCapture()
	c.SetLabel("bytes")
	c.Contribute(deepArtifact("HEB-D|PR|1h|seed=1", 0.7))
	c.Contribute(deepArtifact("HEB-D|PR|1h|seed=1", 0.6))
	c.Contribute(artifactA())
	c.Contribute(artifactB())
	dir := t.TempDir()
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runBytes, fileBytes int64
	for _, r := range m.Runs {
		runBytes += r.Bytes
	}
	for _, a := range m.Artifacts {
		raw, err := os.ReadFile(filepath.Join(dir, a.Name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if int64(len(raw)) != a.Bytes || hex.EncodeToString(sum[:]) != a.SHA256 {
			t.Errorf("%s: inventory %d bytes %.12s, file %d bytes %x", a.Name, a.Bytes, a.SHA256, len(raw), sum[:6])
		}
		if a.Name != "metrics.prom" {
			fileBytes += a.Bytes
		}
	}
	if len(m.Runs) != 4 || runBytes != fileBytes {
		t.Errorf("%d runs hold %d bytes, JSONL artifacts %d", len(m.Runs), runBytes, fileBytes)
	}
	m.Artifacts = nil
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(c.BuildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BuildManifest differs from the written manifest:\n%s\nwant\n%s", got, want)
	}
}

// TestWriteFilesShortRunKeys: keys with fewer fields than a heb run key
// write a capture whose manifest parses the fields present and leaves
// the rest zero.
func TestWriteFilesShortRunKeys(t *testing.T) {
	want := map[string]RunManifest{
		"k":                             {Scheme: "k"},
		"HEB-D|PR":                      {Scheme: "HEB-D", Workload: "PR"},
		"HEB-D|PR|2h0m0s":               {Scheme: "HEB-D", Workload: "PR", DurationSeconds: 7200},
		"HEB-D|PR|1h0m0s|seed=7|cfg=ab": {Scheme: "HEB-D", Workload: "PR", DurationSeconds: 3600, Seed: 7, ConfigHash: "ab"},
	}
	c := NewCapture()
	for key := range want {
		c.Contribute(RunArtifact{Key: key})
	}
	dir := t.TempDir()
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != len(want) {
		t.Fatalf("manifest holds %d runs, want %d", len(m.Runs), len(want))
	}
	for _, r := range m.Runs {
		w := want[r.Key]
		if r.Scheme != w.Scheme || r.Workload != w.Workload || r.DurationSeconds != w.DurationSeconds ||
			r.Seed != w.Seed || r.ConfigHash != w.ConfigHash {
			t.Errorf("key %q parsed as %q %q %g %d %q, want %q %q %g %d %q", r.Key,
				r.Scheme, r.Workload, r.DurationSeconds, r.Seed, r.ConfigHash,
				w.Scheme, w.Workload, w.DurationSeconds, w.Seed, w.ConfigHash)
		}
	}
}

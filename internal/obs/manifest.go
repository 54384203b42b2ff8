package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ManifestVersion is the schema version stamped into every manifest; a
// reader that sees a higher version must refuse to interpret it.
const ManifestVersion = 1

// ManifestName is the manifest's file name inside a capture directory.
const ManifestName = "manifest.json"

// Capture lifecycle statuses recorded in a manifest. A capture is
// "running" from the moment its directory is opened for writing,
// "complete" once WriteFiles lands the full artifact set, "failed" when
// the producing process reported an error, and "killed" when a later
// process found the manifest still "running" (the writer died — the
// flight-recorder resume path performs exactly this transition before it
// takes over).
const (
	StatusRunning  = "running"
	StatusComplete = "complete"
	StatusFailed   = "failed"
	StatusKilled   = "killed"
)

// Manifest indexes one capture directory: its lifecycle status, the runs
// that contributed, and the artifact inventory. It is written atomically
// (temp file + rename) so readers never observe a torn manifest, and its
// content depends only on the contributed artifacts — never on worker
// scheduling or wall-clock time — so manifests are byte-identical for any
// -workers.
type Manifest struct {
	// V is the schema version (ManifestVersion).
	V int `json:"v"`
	// Status is the capture lifecycle status (Status* constants).
	Status string `json:"status"`
	// Label names the producing sweep or experiment ("all", "run", ...).
	Label string `json:"label,omitempty"`
	// Runs indexes the contributing runs in capture output order.
	Runs []RunManifest `json:"runs,omitempty"`
	// Artifacts inventories the capture-owned files (events.jsonl,
	// decisions.jsonl, metrics.prom and the optional deep artifacts) with
	// sizes and content fingerprints. The manifest itself is excluded.
	Artifacts []ArtifactInfo `json:"artifacts,omitempty"`
	// Profiles inventories the capture's pprof artifacts
	// (profiles/*.pb.gz). Profiles measure wall-clock behaviour and are
	// inherently non-deterministic, so they live outside Artifacts: the
	// byte-identity contract covers the manifest *minus this section*,
	// and `hebobs check`/flight-recorder comparisons strip it before diffing.
	Profiles []ArtifactInfo `json:"profiles,omitempty"`
}

// RunManifest is one run's row in the capture index.
type RunManifest struct {
	// ID is a stable short identifier derived from the run key and the
	// artifact content fingerprint; it is what the registry and the hebmon
	// /api/runs endpoints address runs by.
	ID string `json:"id"`
	// Key is the full configuration run key (heb.Prototype.runKey form).
	Key string `json:"key"`
	// Scheme, Workload, DurationSeconds and Seed are parsed out of the
	// key's readable prefix for filtering without string surgery.
	Scheme          string  `json:"scheme"`
	Workload        string  `json:"workload"`
	DurationSeconds float64 `json:"duration_s"`
	Seed            int64   `json:"seed"`
	// ConfigHash is the key's trailing cfg= configuration hash.
	ConfigHash string `json:"config_hash,omitempty"`
	// Status is the run lifecycle status; contributed runs are always
	// complete (a run that dies never reaches its capture — the capture's
	// own status records the kill).
	Status string `json:"status"`
	// Fingerprint condenses the run's full artifact content; two runs of
	// the same configuration producing identical behaviour share it.
	Fingerprint string `json:"fingerprint"`
	// Bytes is the run's share of the JSONL artifact payload.
	Bytes int64 `json:"bytes"`
	// Summary carries the run's headline counters and metrics.
	Summary RunSummary `json:"summary"`
	// Checkpoints counts the run's flight-recorder records and
	// CheckpointHead is the chain head hash (empty when not recorded).
	Checkpoints    int    `json:"checkpoints,omitempty"`
	CheckpointHead string `json:"checkpoint_head,omitempty"`
}

// RunSummary is the deterministic per-run summary embedded in a manifest.
type RunSummary struct {
	Steps         int64 `json:"steps"`
	MismatchSteps int64 `json:"mismatch_steps"`
	Slots         int64 `json:"slots"`
	Events        int   `json:"events"`
	EventsDropped int   `json:"events_dropped,omitempty"`
	Decisions     int   `json:"decisions"`
	Probes        int   `json:"probes,omitempty"`
	RelaySwitches int64 `json:"relay_switches"`
	PATLookups    int64 `json:"pat_lookups,omitempty"`
	PATMisses     int64 `json:"pat_misses,omitempty"`
	// AuditPassed is nil when the run was not audited.
	AuditPassed *bool `json:"audit_passed,omitempty"`
	// Health is the alert engine's per-run verdict (ok, warn or
	// critical), empty when the rule engine was off; AlertWarnings and
	// AlertCriticals split its fired alerts by severity.
	Health         string `json:"health,omitempty"`
	AlertWarnings  int    `json:"alert_warnings,omitempty"`
	AlertCriticals int    `json:"alert_criticals,omitempty"`
	// Metrics carries the run's headline result scalars (energy
	// efficiency, downtime, battery lifetime, ...). encoding/json sorts
	// map keys, so the serialized form stays deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ArtifactInfo is one file of the capture's inventory.
type ArtifactInfo struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// RunID derives the stable short run identifier from a run key and its
// content fingerprint: 12 hex characters of SHA-256, collision-resistant
// enough for any realistic sweep while staying URL-friendly.
func RunID(key, fingerprint string) string {
	sum := sha256.Sum256([]byte(key + "\x00" + fingerprint))
	return hex.EncodeToString(sum[:6])
}

// parseRunKey extracts the readable fields of a heb run key
// ("Scheme|Workload|Duration|seed=N|...|cfg=HASH"); missing or malformed
// fields stay zero — the key itself remains authoritative.
func parseRunKey(key string) (scheme, workload string, durationS float64, seed int64, cfgHash string) {
	parts := strings.Split(key, "|")
	if len(parts) > 0 {
		scheme = parts[0]
	}
	if len(parts) > 1 {
		workload = parts[1]
	}
	if len(parts) > 2 {
		if d, err := time.ParseDuration(parts[2]); err == nil {
			durationS = d.Seconds()
		}
	}
	for _, p := range parts[min(3, len(parts)):] {
		if v, ok := strings.CutPrefix(p, "seed="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				seed = n
			}
		} else if v, ok := strings.CutPrefix(p, "cfg="); ok {
			cfgHash = v
		}
	}
	return scheme, workload, durationS, seed, cfgHash
}

// runManifest builds one run's index row from its contributed artifact,
// its fingerprint digests and its bytes across the JSONL artifacts
// (metrics.prom is aggregate and not attributable).
func runManifest(a *RunArtifact, sums *runDigests, bytes int64) RunManifest {
	scheme, workload, durationS, seed, cfgHash := parseRunKey(a.Key)
	rm := RunManifest{
		Key:             a.Key,
		Scheme:          scheme,
		Workload:        workload,
		DurationSeconds: durationS,
		Seed:            seed,
		ConfigHash:      cfgHash,
		Status:          StatusComplete,
		Fingerprint:     hex.EncodeToString(sums.content[:6]),
		Bytes:           bytes,
		Summary: RunSummary{
			Steps:         a.Steps,
			MismatchSteps: a.MismatchSteps,
			Slots:         a.Slots,
			Events:        len(a.Events),
			EventsDropped: a.EventsDropped,
			Decisions:     len(a.Decisions),
			Probes:        len(a.Probes),
			PATLookups:    a.PATLookups,
			PATMisses:     a.PATMisses,
		},
	}
	// RunID(a.Key, fingerprint bytes), hashed as the bytes streamed.
	rm.ID = hex.EncodeToString(sums.id[:6])
	for _, n := range a.RelaySwitches {
		rm.Summary.RelaySwitches += n
	}
	if len(a.Metrics) > 0 {
		m := make(map[string]float64, len(a.Metrics))
		for k, v := range a.Metrics {
			m[k] = v
		}
		rm.Summary.Metrics = m
	}
	if a.Audit != nil {
		passed := a.Audit.Passed
		rm.Summary.AuditPassed = &passed
	}
	if a.Alerts != nil {
		rm.Summary.Health = a.Alerts.Health
		rm.Summary.AlertWarnings = a.Alerts.Warnings
		rm.Summary.AlertCriticals = a.Alerts.Criticals
	}
	if n := len(a.Checkpoints); n > 0 {
		rm.Checkpoints = n
		rm.CheckpointHead = a.Checkpoints[n-1].Hash
	}
	return rm
}

// BuildManifest renders the capture's run index (status complete, no
// artifact inventory — WriteFiles attaches that as the files land). It
// runs WriteFiles' pass into io.Discard for the run byte counts. Output
// order matches Runs(), so the manifest is deterministic for any worker
// count.
func (c *Capture) BuildManifest() Manifest {
	s := c.snapshot(true)
	// Into io.Discard only a record json cannot encode fails, and the
	// file write reports that.
	bytes, _, _ := s.write("")
	return s.manifest(bytes)
}

// manifest renders s's run index given each run's JSONL bytes.
func (s snapshot) manifest(bytes []int64) Manifest {
	m := Manifest{V: ManifestVersion, Status: StatusComplete, Label: s.label}
	for i := range s.runs {
		m.Runs = append(m.Runs, runManifest(&s.runs[i], &s.sums[i], bytes[i]))
	}
	return m
}

// WriteManifest atomically writes m as dir/manifest.json: the bytes land
// in a temp file first and are renamed into place, so a concurrent reader
// sees either the old manifest or the new one, never a prefix.
func WriteManifest(dir string, m Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: manifest dir: %w", err)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	raw = append(raw, '\n')
	tmp, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("obs: manifest temp: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: close manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: install manifest: %w", err)
	}
	return nil
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("obs: parse %s: %w", ManifestName, err)
	}
	if m.V > ManifestVersion {
		return Manifest{}, fmt.Errorf("obs: manifest version %d newer than supported %d", m.V, ManifestVersion)
	}
	return m, nil
}

// StartManifest marks dir as an in-flight capture: a minimal manifest
// with status running (creating the directory if needed). Call it when a
// capture begins so a killed process leaves a detectable "running"
// manifest behind.
func StartManifest(dir, label string) error {
	return WriteManifest(dir, Manifest{V: ManifestVersion, Status: StatusRunning, Label: label})
}

// SetManifestStatus rewrites only the lifecycle status of an existing
// manifest, preserving everything else. The canonical use is the resume
// path marking a still-"running" manifest as killed before taking over.
func SetManifestStatus(dir, status string) error {
	m, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	m.Status = status
	return WriteManifest(dir, m)
}

// AttachProfiles scans dir/profiles for pprof artifacts and rewrites the
// manifest with their inventory in the Profiles section (sorted by name).
// A capture without profiles is left untouched. Call it after WriteFiles:
// the deterministic sections are already final, and profile hashes only
// ever land in the separate wall-clock inventory.
func AttachProfiles(dir string) error {
	entries, err := os.ReadDir(filepath.Join(dir, "profiles"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("obs: scan profiles: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".pb.gz") {
			names = append(names, filepath.Join("profiles", e.Name()))
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	inv, err := inventory(dir, names)
	if err != nil {
		return err
	}
	m, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	m.Profiles = inv
	return WriteManifest(dir, m)
}

// inventory fingerprints the named files in dir (sizes + SHA-256),
// skipping absent ones.
func inventory(dir string, names []string) ([]ArtifactInfo, error) {
	var out []ArtifactInfo
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("obs: inventory %s: %w", name, err)
		}
		sum := sha256.Sum256(raw)
		out = append(out, ArtifactInfo{Name: name, Bytes: int64(len(raw)), SHA256: hex.EncodeToString(sum[:])})
	}
	return out, nil
}

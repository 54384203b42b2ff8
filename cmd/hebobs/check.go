package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
)

// checkCmd validates a capture directory and prints a one-line
// inventory; any violation, unreadable artifact included, is a finding.
func checkCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	allowDrops := fs.Bool("allow-drops", false, "tolerate a capture whose per-run event cap dropped events")
	perRun := fs.Bool("per-run", false, "print each manifest run's id, key and artifact byte share")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	inv, runs, err := check(fs.Arg(0), *allowDrops)
	if err != nil {
		return findings{err}
	}
	fmt.Fprintf(w, "hebobs check: %s\n", inv)
	if *perRun {
		for _, rm := range runs {
			fmt.Fprintf(w, "hebobs check: run %s %-8s %-4s seed=%-3d %8d bytes  %s\n",
				rm.ID, rm.Scheme, rm.Workload, rm.Seed, rm.Bytes, rm.Key)
		}
	}
	return nil
}

// artifacts holds a capture directory's parsed JSONL artifacts; optional
// ones are nil when absent.
type artifacts struct {
	events      []obs.Event
	decisions   []obs.DecisionRecord
	probes      []obs.ProbeSample
	audits      []obs.AuditReport
	checkpoints []obs.CheckpointRecord
	alerts      []alerts.Event
}

// run keeps the records of one run key.
func (c artifacts) run(key string) artifacts {
	return artifacts{
		events:      ofRun(c.events, key, func(e obs.Event) string { return e.Run }),
		decisions:   ofRun(c.decisions, key, func(r obs.DecisionRecord) string { return r.Run }),
		probes:      ofRun(c.probes, key, func(s obs.ProbeSample) string { return s.Run }),
		audits:      ofRun(c.audits, key, func(r obs.AuditReport) string { return r.Run }),
		checkpoints: ofRun(c.checkpoints, key, func(r obs.CheckpointRecord) string { return r.Run }),
		alerts:      ofRun(c.alerts, key, func(e alerts.Event) string { return e.Run }),
	}
}

// bytes recomputes the artifacts' JSONL byte count the same way the
// writer accounted a run's share.
func (c artifacts) bytes() int64 {
	var buf bytes.Buffer
	_ = obs.WriteJSONL(&buf, c.events)
	_ = obs.WriteJSONL(&buf, c.decisions)
	_ = obs.WriteJSONL(&buf, c.probes)
	_ = obs.WriteJSONL(&buf, c.checkpoints)
	_ = obs.WriteJSONL(&buf, c.audits)
	_ = obs.WriteJSONL(&buf, c.alerts)
	return int64(buf.Len())
}

// readRecords reads a JSONL artifact that must hold at least one record
// when present; a missing file yields nil unless it is required.
func readRecords[T any](dir, name string, required bool, read func(io.Reader) ([]T, error)) ([]T, error) {
	v, ok, err := readArtifact(dir, name, read)
	if err == nil && ok && len(v) == 0 {
		err = fmt.Errorf("%s holds no records", name)
	} else if err == nil && !ok && required {
		err = fmt.Errorf("%s missing", name)
	}
	return v, err
}

// check validates every artifact in dir and returns a one-line inventory
// plus the manifest's run rows; a capture without a manifest is a
// finding.
func check(dir string, allowDrops bool) (string, []obs.RunManifest, error) {
	var c artifacts
	var errs [6]error
	c.events, errs[0] = readRecords(dir, "events.jsonl", true, obs.ReadJSONL[obs.Event])
	c.decisions, errs[1] = readRecords(dir, "decisions.jsonl", true, obs.ReadJSONL[obs.DecisionRecord])
	c.probes, errs[2] = readRecords(dir, "probes.jsonl", false, obs.ReadJSONL[obs.ProbeSample])
	c.audits, errs[3] = readRecords(dir, "audits.jsonl", false, obs.ReadJSONL[obs.AuditReport])
	c.checkpoints, errs[4] = readRecords(dir, "checkpoints.jsonl", false, obs.ReadCheckpoints)
	c.alerts, errs[5] = readRecords(dir, "alerts.jsonl", false, obs.ReadJSONL[alerts.Event])
	for _, err := range errs {
		if err != nil {
			return "", nil, err
		}
	}

	m, err := obs.ReadManifest(dir)
	if err != nil {
		return "", nil, fmt.Errorf("manifest.json: %w", err)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		return "", nil, err
	}
	for _, want := range []string{"heb_engine_steps_total", "heb_control_slots_total"} {
		if !strings.Contains(string(prom), want) {
			return "", nil, fmt.Errorf("metrics.prom missing %s", want)
		}
	}
	dropped := 0
	for _, rm := range m.Runs {
		dropped += rm.Summary.EventsDropped
	}
	if dropped > 0 && !allowDrops {
		return "", nil, droppedError(m, dropped)
	}

	inv := fmt.Sprintf("%d events, %d decision records, %d bytes of metrics", len(c.events), len(c.decisions), len(prom))
	if len(c.probes) > 0 {
		inv += fmt.Sprintf(", %d probe samples", len(c.probes))
	}
	if len(c.audits) > 0 {
		for _, r := range c.audits {
			if !r.Passed {
				return "", nil, fmt.Errorf("audits.jsonl: %s: %s", r.Run, r.Summary())
			}
		}
		inv += fmt.Sprintf(", %d audit reports (all passed)", len(c.audits))
	}
	if len(c.checkpoints) > 0 {
		if err := obs.ValidateCheckpoints(c.checkpoints); err != nil {
			return "", nil, fmt.Errorf("checkpoints.jsonl: %w", err)
		}
		inv += fmt.Sprintf(", %d checkpoints (chain intact)", len(c.checkpoints))
	}
	if len(c.alerts) > 0 {
		// Within a run, fired alerts must be in step order: the engine
		// appends as the simulation advances.
		last := make(map[string]float64)
		for i, e := range c.alerts {
			if t, seen := last[e.Run]; seen && e.Seconds < t {
				return "", nil, fmt.Errorf("alerts.jsonl: event %d at t=%g precedes t=%g for run %s",
					i, e.Seconds, t, e.Run)
			}
			last[e.Run] = e.Seconds
		}
		inv += fmt.Sprintf(", %d alert events", len(c.alerts))
	}
	events, hasTrace, err := readArtifact(dir, "trace.json", readTrace)
	if err != nil {
		return "", nil, err
	}
	if hasTrace {
		inv += fmt.Sprintf(", %d trace events", len(events))
	}

	mline, err := checkManifest(dir, m, c)
	if err != nil {
		return "", nil, fmt.Errorf("manifest.json: %w", err)
	}
	return inv + ", " + mline, m.Runs, nil
}

// droppedError reports a capture whose runs emitted more events than the
// per-run cap (obs.DefaultEventCap) kept, naming each such run from the
// manifest's rows.
func droppedError(m obs.Manifest, dropped int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "capture dropped %d events past the per-run cap of %d", dropped, obs.DefaultEventCap)
	for _, rm := range m.Runs {
		if n := rm.Summary.EventsDropped; n > 0 {
			fmt.Fprintf(&b, "\n  run %s dropped %d: %s", rm.ID, n, rm.Key)
		}
	}
	b.WriteString("\nevents.jsonl is incomplete for these runs; pass -allow-drops to check the rest")
	return errors.New(b.String())
}

// verifyInventoried reads an inventoried file and checks it against the
// manifest's size and SHA-256.
func verifyInventoried(dir string, a obs.ArtifactInfo) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, a.Name))
	if err != nil {
		return nil, fmt.Errorf("inventoried %s unreadable: %w", a.Name, err)
	}
	if int64(len(raw)) != a.Bytes {
		return nil, fmt.Errorf("%s is %d bytes, manifest says %d", a.Name, len(raw), a.Bytes)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != a.SHA256 {
		return nil, fmt.Errorf("%s content hash %.12s, manifest says %.12s", a.Name, got, a.SHA256)
	}
	return raw, nil
}

// checkManifest validates the capture's manifest against the parsed
// on-disk artifacts: lifecycle status, artifact inventory (presence,
// size, SHA-256, completeness) and per-run consistency (record counts,
// checkpoint-chain head, alert health verdict, serialized byte share).
func checkManifest(dir string, m obs.Manifest, c artifacts) (string, error) {
	if m.Status != obs.StatusComplete {
		return "", fmt.Errorf("capture status %q — the writer died or failed before finishing", m.Status)
	}
	if len(m.Runs) == 0 {
		return "", fmt.Errorf("status complete but no runs indexed")
	}

	inventoried := make(map[string]bool, len(m.Artifacts))
	var totalBytes int64
	for _, a := range m.Artifacts {
		if !slices.Contains(obs.ArtifactNames, a.Name) {
			return "", fmt.Errorf("inventory entry %q is not a capture artifact", a.Name)
		}
		if _, err := verifyInventoried(dir, a); err != nil {
			return "", err
		}
		inventoried[a.Name] = true
		totalBytes += a.Bytes
	}
	for _, name := range obs.ArtifactNames {
		if _, serr := os.Stat(filepath.Join(dir, name)); serr == nil && !inventoried[name] {
			return "", fmt.Errorf("%s exists on disk but is missing from the inventory", name)
		}
	}

	// Artifact records carry the run *key*, and a full sweep may run the
	// same configuration in more than one experiment — so consistency is
	// checked per key, summing the rows that share one. Single-row keys
	// (the overwhelming majority) additionally pin the chain head.
	type keyTotals struct {
		rows, events, decisions, probes, checkpoints int
		alertWarnings, alertCriticals                int
		bytes                                        int64
		head                                         string
	}
	byKey := make(map[string]*keyTotals, len(m.Runs))
	for _, rm := range m.Runs {
		if rm.Status != obs.StatusComplete {
			return "", fmt.Errorf("run %s status %q in a complete capture", rm.ID, rm.Status)
		}
		// The health verdict must be honest about its own counts; an empty
		// one (rule engine off) requires that none fired.
		s := rm.Summary
		want := alerts.HealthFor(s.AlertWarnings, s.AlertCriticals)
		if s.Health != want && (s.Health != "" || want != alerts.HealthOK) {
			return "", fmt.Errorf("run %s: health %q inconsistent with %d warnings, %d criticals",
				rm.ID, s.Health, s.AlertWarnings, s.AlertCriticals)
		}
		kt := byKey[rm.Key]
		if kt == nil {
			kt = &keyTotals{}
			byKey[rm.Key] = kt
		}
		kt.rows++
		kt.events += s.Events
		kt.decisions += s.Decisions
		kt.probes += s.Probes
		kt.checkpoints += rm.Checkpoints
		kt.alertWarnings += s.AlertWarnings
		kt.alertCriticals += s.AlertCriticals
		kt.bytes += rm.Bytes
		kt.head = rm.CheckpointHead
	}
	for key, kt := range byKey {
		r := c.run(key)
		if len(r.events) != kt.events {
			return "", fmt.Errorf("run %s: %d events on disk, manifest says %d", key, len(r.events), kt.events)
		}
		if len(r.decisions) != kt.decisions {
			return "", fmt.Errorf("run %s: %d decisions on disk, manifest says %d", key, len(r.decisions), kt.decisions)
		}
		if len(r.probes) != kt.probes {
			return "", fmt.Errorf("run %s: %d probes on disk, manifest says %d", key, len(r.probes), kt.probes)
		}
		if len(r.checkpoints) != kt.checkpoints {
			return "", fmt.Errorf("run %s: %d checkpoints on disk, manifest says %d", key, len(r.checkpoints), kt.checkpoints)
		}
		if n := len(r.checkpoints); n > 0 && kt.rows == 1 && r.checkpoints[n-1].Hash != kt.head {
			return "", fmt.Errorf("run %s: checkpoint chain head %s, manifest says %s",
				key, r.checkpoints[n-1].Hash, kt.head)
		}
		warnsDisk, critsDisk := 0, 0
		for _, e := range r.alerts {
			switch e.Severity {
			case alerts.SeverityWarn:
				warnsDisk++
			case alerts.SeverityCritical:
				critsDisk++
			}
		}
		// Past the per-engine storage cap fired alerts are counted but not
		// recorded, so exact equality only binds uncapped runs.
		if kt.alertWarnings+kt.alertCriticals <= alerts.EventCap*kt.rows {
			if warnsDisk != kt.alertWarnings || critsDisk != kt.alertCriticals {
				return "", fmt.Errorf("run %s: %d warn + %d critical alerts on disk, manifest says %d + %d",
					key, warnsDisk, critsDisk, kt.alertWarnings, kt.alertCriticals)
			}
		} else if warnsDisk > kt.alertWarnings || critsDisk > kt.alertCriticals {
			return "", fmt.Errorf("run %s: more alerts on disk (%d warn, %d critical) than the manifest admits (%d, %d)",
				key, warnsDisk, critsDisk, kt.alertWarnings, kt.alertCriticals)
		}
		if got := r.bytes(); got != kt.bytes {
			return "", fmt.Errorf("run %s: artifacts serialize to %d bytes, manifest says %d", key, got, kt.bytes)
		}
	}
	line := fmt.Sprintf("manifest v%d complete (%d runs, %d bytes inventoried)", m.V, len(m.Runs), totalBytes)
	if err := checkProfiles(dir, m); err != nil {
		return "", err
	}
	if len(m.Profiles) > 0 {
		line += fmt.Sprintf(", %d profiles validated", len(m.Profiles))
	}
	return line, nil
}

// minLabeledCPUSamples is the CPU-profile size below which the
// cell-label check abstains: with fewer samples than this, the 100 Hz
// sampler can plausibly have missed the labeled simulation region
// entirely on a fast run.
const minLabeledCPUSamples = 5

// checkProfiles validates the manifest's wall-clock profile inventory:
// every entry must exist with matching size and SHA-256, parse as a
// pprof proto of a known kind, and a CPU profile that captured samples
// must carry the sweep-cell labels pprof.Do attached. Conversely every
// profiles/*.pb.gz on disk must be inventoried. Captures without
// profiles (the default — profiling is opt-in) stay legal.
func checkProfiles(dir string, m obs.Manifest) error {
	inventoried := make(map[string]bool, len(m.Profiles))
	for _, a := range m.Profiles {
		base := filepath.Base(a.Name)
		kind, known := prof.KindFromFile(base)
		if filepath.Dir(a.Name) != prof.Dir || !known {
			return fmt.Errorf("profile inventory entry %q is not a %s/<kind>.pb.gz artifact", a.Name, prof.Dir)
		}
		raw, err := verifyInventoried(dir, a)
		if err != nil {
			return err
		}
		p, err := prof.Parse(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		// pprof labels only materialize on CPU samples, so the cell-label
		// contract binds cpu.pb.gz alone — and only when the run was hot
		// enough for the 100 Hz sampler to land enough samples that at
		// least one statistically must have hit the labeled region. Below
		// that, a handful of samples can all land in unlabeled work
		// (artifact marshaling, setup) without implying a labeling bug.
		if kind == "cpu" && len(p.Samples) >= minLabeledCPUSamples &&
			!slices.ContainsFunc(p.Samples, func(s prof.Sample) bool {
				return s.Labels[prof.LabelScheme] != "" && s.Labels[prof.LabelWorkload] != ""
			}) {
			return fmt.Errorf("%s: %d CPU samples but none carry the %s/%s cell labels",
				a.Name, len(p.Samples), prof.LabelScheme, prof.LabelWorkload)
		}
		inventoried[base] = true
	}
	entries, err := os.ReadDir(filepath.Join(dir, prof.Dir))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("scan %s: %w", prof.Dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".pb.gz") && !inventoried[e.Name()] {
			return fmt.Errorf("%s/%s exists on disk but is missing from the profile inventory", prof.Dir, e.Name())
		}
	}
	return nil
}

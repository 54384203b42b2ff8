package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"heb/internal/obs/alerts"
)

// RunArtifact is one run's contribution to a capture: its events and
// decision trace plus the deterministic scalar counters that end up in
// metrics.prom. Key must identify the run's full configuration (scheme,
// workload, duration, seed, ...) — artifacts are sorted by Key before
// writing, which is what makes the output independent of worker
// scheduling.
type RunArtifact struct {
	Key           string
	Events        []Event
	EventsDropped int
	Decisions     []DecisionRecord
	Steps         int64
	MismatchSteps int64
	Slots         int64
	// RelaySwitches counts relay movements by destination position name
	// (utility, battery, supercap, off).
	RelaySwitches map[string]int64
	PATLookups    int64
	PATMisses     int64
	// Probes holds the run's per-device probe samples (probes.jsonl);
	// ProbesDropped counts samples the per-device ring overwrote.
	Probes        []ProbeSample
	ProbesDropped int64
	// Audit is the run's energy-conservation verdict (audits.jsonl), nil
	// when the run was not audited.
	Audit *AuditReport
	// Checkpoints holds the run's hash-chained flight-recorder records
	// (checkpoints.jsonl), empty when checkpointing was off.
	Checkpoints []CheckpointRecord
	// AlertEvents holds the run's fired SLO alerts (alerts.jsonl), empty
	// when the rule engine was off or quiet.
	AlertEvents []alerts.Event
	// Alerts is the run's alert report and health verdict, nil when the
	// rule engine was off.
	Alerts *alerts.Report
	// Metrics carries the run's headline result scalars (energy
	// efficiency, downtime, battery lifetime, ...) for the manifest's
	// summary and cross-run comparison.
	Metrics map[string]float64
}

// Capture aggregates the per-run observability artifacts of a sweep and
// writes them as three files: events.jsonl, decisions.jsonl and
// metrics.prom. Runs may Contribute concurrently and in any order; the
// written files are byte-identical for any worker count because output is
// sorted by (Key, content) and contains only simulation-deterministic
// values — never wall-clock or scheduling state.
type Capture struct {
	mu    sync.Mutex
	label string
	runs  []RunArtifact
}

// DefaultEventCap bounds the events kept per run so a full-suite sweep
// cannot grow without bound; overflow is counted, not stored. It is the
// floor of EventCapFor.
const DefaultEventCap = 5000

// eventCapPerHour is EventCapFor's allowance per simulated hour, about
// twice the busiest run of a full suite: HEB-D on a day of solar supply
// emits about 420 events per simulated hour.
const eventCapPerHour = 1000

// EventCapFor returns the per-run event cap for a run of simulated length
// d: eventCapPerHour per simulated hour, never below DefaultEventCap.
func EventCapFor(d time.Duration) int {
	return max(DefaultEventCap, int(d.Hours()*eventCapPerHour))
}

// NewCapture builds an empty capture.
func NewCapture() *Capture { return &Capture{} }

// SetLabel names the producing sweep/experiment; the label lands in the
// manifest so the registry can show what a capture directory holds.
func (c *Capture) SetLabel(label string) {
	c.mu.Lock()
	c.label = label
	c.mu.Unlock()
}

// Contribute adds one run's artifact. Events and decisions are stamped
// with the run key so the merged files remain attributable.
func (c *Capture) Contribute(a RunArtifact) {
	for i := range a.Events {
		if a.Events[i].Run == "" {
			a.Events[i].Run = a.Key
		}
	}
	for i := range a.Decisions {
		if a.Decisions[i].Run == "" {
			a.Decisions[i].Run = a.Key
		}
	}
	for i := range a.Probes {
		if a.Probes[i].Run == "" {
			a.Probes[i].Run = a.Key
		}
	}
	if a.Audit != nil && a.Audit.Run == "" {
		a.Audit.Run = a.Key
	}
	for i := range a.Checkpoints {
		if a.Checkpoints[i].Run == "" {
			a.Checkpoints[i].Run = a.Key
		}
	}
	for i := range a.AlertEvents {
		if a.AlertEvents[i].Run == "" {
			a.AlertEvents[i].Run = a.Key
		}
	}
	if a.Alerts != nil && a.Alerts.Run == "" {
		a.Alerts.Run = a.Key
	}
	c.mu.Lock()
	c.runs = append(c.runs, a)
	c.mu.Unlock()
}

// Len returns the number of contributed runs without sorting them.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// Runs returns the contributed artifacts sorted into output order.
func (c *Capture) Runs() []RunArtifact { return c.snapshot(false).runs }

// snapshot is a capture sorted once into output order: the label, the
// runs and each run's fingerprint digests (zero for a run that was not
// fingerprinted).
type snapshot struct {
	label string
	runs  []RunArtifact
	sums  []runDigests
}

// snapshot copies the contributed runs and sorts them by (Key, content
// digest). It fingerprints every run when all is set (the manifest
// needs each run's digests), and otherwise only the runs whose key ties
// another's, which are all that the order needs.
func (c *Capture) snapshot(all bool) snapshot {
	c.mu.Lock()
	s := snapshot{label: c.label, runs: append([]RunArtifact(nil), c.runs...)}
	c.mu.Unlock()
	sort.SliceStable(s.runs, func(a, b int) bool { return s.runs[a].Key < s.runs[b].Key })
	s.sums = make([]runDigests, len(s.runs))
	// Key collisions are legitimate (a suite may run the same cell in
	// several experiments, and a key cannot encode every config knob), so
	// ties must order by full content to keep the written files
	// scheduling-independent.
	var f fingerprint
	for lo := 0; lo < len(s.runs); {
		hi := lo + 1
		for hi < len(s.runs) && s.runs[hi].Key == s.runs[lo].Key {
			hi++
		}
		if all || hi-lo > 1 {
			if f.content == nil {
				f = newFingerprint()
			}
			for i := lo; i < hi; i++ {
				f.sum(&s.runs[i], &s.sums[i])
			}
		}
		// Stable insertion sort by content digest: a tie is a handful of runs.
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && string(s.sums[j].content[:]) < string(s.sums[j-1].content[:]); j-- {
				s.runs[j], s.runs[j-1] = s.runs[j-1], s.runs[j]
				s.sums[j], s.sums[j-1] = s.sums[j-1], s.sums[j]
			}
		}
		lo = hi
	}
	return s
}

// runDigests are the SHA-256 sums of one run's fingerprint bytes: of
// the bytes alone (the manifest fingerprint) and behind the run key and
// a NUL (RunID).
type runDigests struct{ content, id [sha256.Size]byte }

// fingerprint streams an artifact's full simulated content — counters,
// every event, every decision record — through a 1 KiB buffer into the
// two states of runDigests, so that artifacts sharing a Key still sort
// deterministically. One fingerprint serves every run of a snapshot.
type fingerprint struct {
	content, id hash.Hash
	buf         []byte
}

func newFingerprint() fingerprint {
	return fingerprint{content: sha256.New(), id: sha256.New(), buf: make([]byte, 0, 1<<10)}
}

// sum fingerprints a into dst.
func (f *fingerprint) sum(a *RunArtifact, dst *runDigests) {
	f.content.Reset()
	f.id.Reset()
	f.buf = append(append(f.buf[:0], a.Key...), 0)
	f.id.Write(f.buf)
	f.buf = f.buf[:0]

	f.d("", a.Steps)
	f.d("|", a.MismatchSteps)
	f.d("|", a.Slots)
	f.d("|", int64(len(a.Events)))
	f.d("|", int64(len(a.Decisions)))
	for _, e := range a.Events {
		f.g("|", e.Seconds)
		f.d(":", int64(e.Kind))
		f.d(":", int64(e.Server))
		f.s(":", e.From)
		f.s(":", e.To)
		f.g(":", e.Watts)
	}
	for _, d := range a.Decisions {
		f.d("|", int64(d.Slot))
		f.s(":", d.Mode)
		f.g(":", d.Ratio)
		f.v(":", d.SmallPeak)
		f.g(":", d.PredictedPeakW)
		f.g(":", d.ActualPeakW)
		f.g(":", d.SCFrac)
		f.g(":", d.BAFrac)
		f.d(":", int64(d.PATLookups))
	}
	f.d("|probes=", int64(len(a.Probes)))
	f.d(",", a.ProbesDropped)
	for _, s := range a.Probes {
		f.g("|", s.Seconds)
		f.s(":", s.Device)
		f.g(":", s.SoC)
		f.g(":", s.VoltageV)
		f.g(":", s.PowerW)
		f.g(":", s.AvailAh)
		f.g(":", s.BoundAh)
		f.g(":", s.ThroughputAh)
	}
	if au := a.Audit; au != nil {
		f.s("|audit=", au.Mode)
		f.d(":", au.Steps)
		f.g(":", au.DriftWh)
		f.g(":", au.RelDrift)
		f.d(":", au.Violations)
		f.v(":", au.Passed)
	}
	f.d("|ckpts=", int64(len(a.Checkpoints)))
	for _, r := range a.Checkpoints {
		// The chain hash already covers slot, step, time and state.
		f.s("|", r.Hash)
	}
	if al := a.Alerts; al != nil {
		f.s("|alerts=", al.Mode)
		f.d(":", int64(al.Events))
		f.d(":", int64(al.Warnings))
		f.d(":", int64(al.Criticals))
		f.s(":", al.Health)
	}
	for _, e := range a.AlertEvents {
		f.g("|", e.Seconds)
		f.s(":", e.Kind.String())
		f.s(":", e.Severity.String())
		f.s(":", e.Device)
		f.g(":", e.Value)
		f.g(":", e.Limit)
	}
	for _, k := range sortedMetricKeys(a.Metrics) {
		f.s("|", k)
		f.g("=", a.Metrics[k])
	}

	f.flush()
	f.content.Sum(dst.content[:0])
	f.id.Sum(dst.id[:0])
}

// flush hashes the buffered bytes into both states.
func (f *fingerprint) flush() {
	f.content.Write(f.buf)
	f.id.Write(f.buf)
	f.buf = f.buf[:0]
}

// Each writer appends a literal prefix, then one value as fmt prints it:
// d as %d, g as %g (the shortest form, so -0, NaN and +Inf print as fmt
// does), s as %s and v as %v of a bool.
func (f *fingerprint) s(prefix, str string)     { f.str(prefix); f.str(str) }
func (f *fingerprint) d(prefix string, n int64) { f.buf = strconv.AppendInt(f.num(prefix), n, 10) }
func (f *fingerprint) v(prefix string, b bool)  { f.buf = strconv.AppendBool(f.num(prefix), b) }
func (f *fingerprint) g(prefix string, x float64) {
	f.buf = strconv.AppendFloat(f.num(prefix), x, 'g', -1, 64)
}

// num writes prefix and returns the buffer with room for one number
// (at most 24 bytes).
func (f *fingerprint) num(prefix string) []byte {
	if f.str(prefix); cap(f.buf)-len(f.buf) < 32 {
		f.flush()
	}
	return f.buf
}

// str buffers s, flushing each time the buffer fills.
func (f *fingerprint) str(s string) {
	for len(s) > cap(f.buf)-len(f.buf) {
		n := copy(f.buf[len(f.buf):cap(f.buf)], s)
		f.buf, s = f.buf[:cap(f.buf)], s[n:]
		f.flush()
	}
	f.buf = append(f.buf, s...)
}

func sortedMetricKeys(m map[string]float64) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// registry renders the runs' deterministic counters into a fresh metrics
// registry using the heb_<subsystem>_<name>_<unit> naming scheme.
func registry(runs []RunArtifact) *Registry {
	reg := NewRegistry()
	reg.Counter("heb_capture_runs_total", "Runs contributing to this capture.").Add(float64(len(runs)))
	for _, a := range runs {
		reg.Counter("heb_engine_steps_total", "Simulation steps executed.").Add(float64(a.Steps))
		reg.Counter("heb_engine_mismatch_steps_total", "Steps with demand above supply.").Add(float64(a.MismatchSteps))
		reg.Counter("heb_control_slots_total", "hControl slots planned.").Add(float64(a.Slots))
		reg.Counter("heb_pat_lookups_total", "PAT table lookups.").Add(float64(a.PATLookups))
		reg.Counter("heb_pat_misses_total", "PAT lookups served by similarity fallback.").Add(float64(a.PATMisses))
		reg.Counter("heb_obs_events_dropped_total", "Events rejected by the per-run cap.").Add(float64(a.EventsDropped))
		for pos, n := range a.RelaySwitches {
			reg.Counter("heb_power_relay_switches_total", "Relay movements by destination position.",
				Label{Name: "position", Value: pos}).Add(float64(n))
		}
		for kind, n := range countKinds(a.Events) {
			reg.Counter("heb_obs_events_total", "Events recorded by kind.",
				Label{Name: "kind", Value: kind.String()}).Add(float64(n))
		}
		reg.Counter("heb_obs_probes_total", "Probe samples retained.").Add(float64(len(a.Probes)))
		reg.Counter("heb_obs_probes_dropped_total", "Probe samples overwritten by the per-device ring.").Add(float64(a.ProbesDropped))
		if len(a.Probes) > 0 {
			soc := reg.Histogram("heb_probe_soc", "Probed device state of charge.",
				LinearBuckets(0, 0.1, 10))
			power := reg.Histogram("heb_probe_power_watts", "Probed mean net terminal power (positive discharging).",
				LinearBuckets(-200, 50, 10))
			for _, s := range a.Probes {
				soc.Observe(s.SoC)
				power.Observe(s.PowerW)
			}
		}
		if a.Audit != nil {
			reg.Counter("heb_audit_runs_total", "Audited runs by verdict.",
				Label{Name: "passed", Value: fmt.Sprintf("%v", a.Audit.Passed)}).Add(1)
			reg.Counter("heb_audit_violations_total", "Audit violations flagged.").Add(float64(a.Audit.Violations))
		}
		if a.Alerts != nil {
			reg.Counter("heb_alert_runs_total", "Alerted runs by health verdict.",
				Label{Name: "health", Value: a.Alerts.Health}).Add(1)
			reg.Counter("heb_alert_events_total", "Fired SLO alerts by severity.",
				Label{Name: "severity", Value: alerts.SeverityWarn.String()}).Add(float64(a.Alerts.Warnings))
			reg.Counter("heb_alert_events_total", "Fired SLO alerts by severity.",
				Label{Name: "severity", Value: alerts.SeverityCritical.String()}).Add(float64(a.Alerts.Criticals))
		}
	}
	return reg
}

func countKinds(events []Event) map[EventKind]int {
	out := make(map[EventKind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// WriteFiles writes events.jsonl, decisions.jsonl and metrics.prom into
// dir, creating it if needed; probes.jsonl, audits.jsonl,
// checkpoints.jsonl and alerts.jsonl follow whenever any run contributed
// probe samples, an audit report, flight-recorder checkpoints or fired
// alerts, and a copy left by an earlier capture is removed otherwise. A
// manifest.json indexing the runs and inventorying the written files
// (sizes + SHA-256, taken as the bytes were written) is installed
// atomically last, with status complete. Output depends only on the
// contributed artifacts, never on contribution order.
func (c *Capture) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: capture dir: %w", err)
	}
	s := c.snapshot(true)
	bytes, inv, err := s.write(dir)
	if err != nil {
		return err
	}
	m := s.manifest(bytes)
	m.Artifacts = inv
	return WriteManifest(dir, m)
}

// artifact is one capture file. A JSONL artifact encodes its records run
// by run; metrics.prom (run nil) aggregates every run.
type artifact struct {
	name string
	// has, set for an optional artifact, reports whether a run has
	// records for it; the file is written only when some run does.
	has func(a *RunArtifact) bool
	run func(e *jsonlEncoder, a *RunArtifact) error
}

// artifacts lists every capture-owned file in inventory order.
var artifacts = []artifact{
	{name: "events.jsonl", run: func(e *jsonlEncoder, a *RunArtifact) error { return encodeAll(e, a.Events) }},
	{name: "decisions.jsonl", run: func(e *jsonlEncoder, a *RunArtifact) error { return encodeAll(e, a.Decisions) }},
	{name: "metrics.prom"},
	{name: "probes.jsonl",
		has: func(a *RunArtifact) bool { return len(a.Probes) > 0 },
		run: func(e *jsonlEncoder, a *RunArtifact) error { return encodeAll(e, a.Probes) }},
	{name: "audits.jsonl",
		has: func(a *RunArtifact) bool { return a.Audit != nil },
		run: func(e *jsonlEncoder, a *RunArtifact) error {
			if a.Audit == nil {
				return nil
			}
			return e.encode(a.Audit)
		}},
	{name: "checkpoints.jsonl",
		has: func(a *RunArtifact) bool { return len(a.Checkpoints) > 0 },
		run: func(e *jsonlEncoder, a *RunArtifact) error { return encodeAll(e, a.Checkpoints) }},
	{name: "alerts.jsonl",
		has: func(a *RunArtifact) bool { return len(a.AlertEvents) > 0 },
		run: func(e *jsonlEncoder, a *RunArtifact) error { return encodeAll(e, a.AlertEvents) }},
}

// ArtifactNames lists every capture-owned artifact file a manifest may
// inventory, in inventory order.
var ArtifactNames = func() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}()

// artifactSink sits between the encoders and the buffered file: it counts
// every byte written and, when hashing, feeds it to SHA-256.
type artifactSink struct {
	w io.Writer
	h hash.Hash
	n int64
}

func (s *artifactSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	if s.h != nil {
		s.h.Write(p)
	}
	return s.w.Write(p)
}

// write is the capture's one pass over its sorted runs. It writes every
// artifact into dir run by run through one buffered writer, removes the
// optional artifacts it does not write, and returns each run's bytes
// across the JSONL artifacts and the inventory of the written files.
// With dir empty it encodes the JSONL artifacts into io.Discard for the
// byte counts alone. On error the counts cover what was encoded.
func (s snapshot) write(dir string) ([]int64, []ArtifactInfo, error) {
	bytes := make([]int64, len(s.runs))
	sink := &artifactSink{w: io.Discard}
	var bw *bufio.Writer
	if dir != "" {
		bw = bufio.NewWriterSize(nil, 64<<10)
		sink.w, sink.h = bw, sha256.New()
	}
	enc := newJSONLEncoder(sink)
	var inv []ArtifactInfo
	for _, art := range artifacts {
		path := filepath.Join(dir, art.name)
		switch {
		case art.has != nil && !s.any(art.has):
			// A copy left by an earlier capture would pass for this one's.
			if dir != "" {
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					return bytes, nil, fmt.Errorf("obs: remove stale %s: %w", art.name, err)
				}
			}
		case dir == "":
			if art.run == nil {
				continue
			}
			if err := s.encode(art, enc, sink, bytes); err != nil {
				return bytes, nil, fmt.Errorf("obs: write %s: %w", art.name, err)
			}
		default:
			f, err := os.Create(path)
			if err != nil {
				return bytes, nil, fmt.Errorf("obs: %w", err)
			}
			bw.Reset(f)
			sink.n = 0
			sink.h.Reset()
			err = s.encode(art, enc, sink, bytes)
			if err == nil {
				err = bw.Flush()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return bytes, nil, fmt.Errorf("obs: write %s: %w", art.name, err)
			}
			inv = append(inv, ArtifactInfo{Name: art.name, Bytes: sink.n, SHA256: hex.EncodeToString(sink.h.Sum(nil))})
		}
	}
	return bytes, inv, nil
}

// any reports whether has holds for some run.
func (s snapshot) any(has func(a *RunArtifact) bool) bool {
	for i := range s.runs {
		if has(&s.runs[i]) {
			return true
		}
	}
	return false
}

// encode writes one artifact's content through enc (JSONL) or sink
// (metrics.prom), adding each run's JSONL bytes to bytes.
func (s snapshot) encode(art artifact, enc *jsonlEncoder, sink *artifactSink, bytes []int64) error {
	if art.run == nil {
		return registry(s.runs).WritePrometheus(sink)
	}
	for i := range s.runs {
		n0 := sink.n
		if err := art.run(enc, &s.runs[i]); err != nil {
			return err
		}
		bytes[i] += sink.n - n0
	}
	return nil
}

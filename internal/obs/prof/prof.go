// Package prof is the capture-integrated profiling layer: it labels every
// sweep cell with pprof labels (scheme, workload, seed, phase) so CPU
// samples attribute to cells, collects opt-in per-run pprof protos into a
// capture directory, and decodes/rolls up those protos for `hebobs prof`
// and `hebobs check` without any third-party pprof dependency.
//
// Profiles are wall-clock artifacts: like execution traces they are
// explicitly non-deterministic and live outside the byte-identity
// contract that events/decisions/metrics/manifest obey. The manifest
// records them in a separate Profiles inventory section for the same
// reason.
package prof

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Dir is the subdirectory of a capture directory that holds profiles.
const Dir = "profiles"

// Kinds in collection order. CPU must start first (it profiles the whole
// window); the rest are snapshots written at Stop.
var Kinds = []string{"cpu", "heap", "allocs", "mutex", "block"}

// ParseKinds validates a comma-separated -profile flag value. "all"
// expands to every kind; duplicates collapse; order is normalised to
// Kinds order so the artifact set is stable.
func ParseKinds(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("prof: empty profile kind list")
	}
	want := map[string]bool{}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if k == "all" {
			for _, all := range Kinds {
				want[all] = true
			}
			continue
		}
		known := false
		for _, all := range Kinds {
			if k == all {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("prof: unknown profile kind %q (valid: %s, all)", k, strings.Join(Kinds, ", "))
		}
		want[k] = true
	}
	var out []string
	for _, k := range Kinds {
		if want[k] {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("prof: empty profile kind list")
	}
	return out, nil
}

// FileName maps a kind to its on-disk artifact name inside Dir.
func FileName(kind string) string { return kind + ".pb.gz" }

// KindFromFile inverts FileName; ok is false for foreign names.
func KindFromFile(name string) (string, bool) {
	kind, found := strings.CutSuffix(name, ".pb.gz")
	if !found {
		return "", false
	}
	for _, k := range Kinds {
		if kind == k {
			return k, true
		}
	}
	return "", false
}

// KindForSample names the profile kind whose proto carries a sample
// type: alloc_* in allocs, inuse_* in heap, contentions and delay in
// mutex, anything else in cpu.
func KindForSample(sample string) string {
	switch sample {
	case "alloc_space", "alloc_objects":
		return "allocs"
	case "inuse_space", "inuse_objects":
		return "heap"
	case "contentions", "delay":
		return "mutex"
	default:
		return "cpu"
	}
}

// active is the process-wide profiling switch. Prototype.Run consults it
// on the hot path with a single atomic load, so disabled runs pay nothing
// measurable (BenchmarkEngineStep, which runs with profiling off, gates
// allocs/op exactly).
var active atomic.Bool

// Active reports whether a Collector is currently running.
func Active() bool { return active.Load() }

// Collector captures the requested profile kinds for one process-wide
// window (Start..Stop) and writes them under dir/profiles/. It is not
// safe for concurrent Start/Stop, matching its single-owner use in
// hebsim's main.
type Collector struct {
	dir     string
	kinds   []string
	cpuFile *os.File
	// prevMutexFrac/prevBlockRate restore the runtime's sampling knobs on
	// Stop so profiling a run doesn't leak state into later benchmarks.
	prevMutexFrac int
	running       bool
}

// NewCollector prepares a collector that writes kinds into
// captureDir/profiles.
func NewCollector(captureDir string, kinds []string) *Collector {
	return &Collector{dir: filepath.Join(captureDir, Dir), kinds: kinds}
}

func (c *Collector) has(kind string) bool {
	for _, k := range c.kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Start begins the profiling window: creates the profiles directory,
// starts the CPU profile if requested, arms mutex/block sampling, and
// flips the global Active flag so sweep cells begin labeling.
func (c *Collector) Start() error {
	if c.running {
		return fmt.Errorf("prof: collector already running")
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	if c.has("cpu") {
		f, err := os.Create(filepath.Join(c.dir, FileName("cpu")))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("prof: start cpu profile: %w", err)
		}
		c.cpuFile = f
	}
	if c.has("mutex") {
		c.prevMutexFrac = runtime.SetMutexProfileFraction(5)
	}
	if c.has("block") {
		runtime.SetBlockProfileRate(10_000) // sample blocking events ≥10µs-ish
	}
	c.running = true
	active.Store(true)
	return nil
}

// Stop ends the window and writes the snapshot profiles. It is called
// right after the simulation finishes and before artifact files are
// written, so capture-file IO never pollutes the profiles.
func (c *Collector) Stop() error {
	if !c.running {
		return nil
	}
	c.running = false
	active.Store(false)
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(c.cpuFile.Close())
		c.cpuFile = nil
	}
	snapshot := func(kind, lookup string) {
		if !c.has(kind) {
			return
		}
		f, err := os.Create(filepath.Join(c.dir, FileName(kind)))
		if err != nil {
			keep(err)
			return
		}
		p := pprof.Lookup(lookup)
		if p == nil {
			keep(fmt.Errorf("prof: no %s profile in runtime", lookup))
		} else {
			keep(p.WriteTo(f, 0))
		}
		keep(f.Close())
	}
	if c.has("heap") || c.has("allocs") {
		runtime.GC() // settle live-heap accounting before the snapshots
	}
	snapshot("heap", "heap")
	snapshot("allocs", "allocs")
	snapshot("mutex", "mutex")
	snapshot("block", "block")
	if c.has("mutex") {
		runtime.SetMutexProfileFraction(c.prevMutexFrac)
	}
	if c.has("block") {
		runtime.SetBlockProfileRate(0)
	}
	return firstErr
}

// Files lists the artifact names (relative to the capture dir) this
// collector writes, in Kinds order.
func (c *Collector) Files() []string {
	var out []string
	for _, k := range c.kinds {
		out = append(out, filepath.Join(Dir, FileName(k)))
	}
	return out
}

// Cell label keys attached to every profiled sweep cell.
const (
	LabelScheme   = "scheme"
	LabelWorkload = "workload"
	LabelSeed     = "seed"
	LabelPhase    = "phase"
)

// Run phases, set via SetPhase as a cell moves through its lifecycle.
const (
	PhaseSetup  = "setup"  // pool/scheme/controller construction
	PhaseSteps  = "steps"  // the engine hot loop
	PhasePlan   = "plan"   // slot planning inside the engine
	PhaseFinish = "finish" // result assembly and capture contribution
)

// DoCell runs fn with the cell's pprof labels attached to the goroutine,
// starting in PhaseSetup. The labeled context must be threaded into any
// nested SetPhase calls; pprof.Do restores the caller's labels on return.
func DoCell(scheme, workload string, seed int64, fn func(ctx context.Context)) {
	pprof.Do(context.Background(), pprof.Labels(
		LabelScheme, scheme,
		LabelWorkload, workload,
		LabelSeed, strconv.FormatInt(seed, 10),
		LabelPhase, PhaseSetup,
	), fn)
}

// SetPhase switches the goroutine's phase label in place, keeping the
// cell identity labels. ctx must be the context DoCell passed to fn; a
// nil ctx (profiling disabled) is a no-op.
func SetPhase(ctx context.Context, phase string) {
	if ctx == nil {
		return
	}
	ctx = pprof.WithLabels(ctx, pprof.Labels(LabelPhase, phase))
	pprof.SetGoroutineLabels(ctx)
}

// CellLabelKeys is the label set hebobs check expects on labeled CPU samples.
var CellLabelKeys = []string{LabelScheme, LabelWorkload, LabelSeed, LabelPhase}

// LabeledShare reports the fraction [0,1] of a profile's headline value
// carried by samples that have all cell label keys, plus the distinct
// label-value combinations seen. Heap/allocs profiles legitimately score
// 0 — the runtime only attaches goroutine labels to CPU samples.
func LabeledShare(p *Profile) (share float64, combos int) {
	idx, err := p.SampleTypeIndex("")
	if err != nil {
		return 0, 0
	}
	var total, labeled int64
	seen := map[string]bool{}
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			continue
		}
		v := s.Values[idx]
		total += v
		ok := true
		var key []string
		for _, k := range CellLabelKeys {
			val, have := s.Labels[k]
			if !have {
				ok = false
				break
			}
			key = append(key, k+"="+val)
		}
		if ok {
			labeled += v
			sort.Strings(key)
			seen[strings.Join(key, ",")] = true
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(labeled) / float64(total), len(seen)
}

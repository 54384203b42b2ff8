package heb

import (
	"fmt"
	"strings"
	"time"

	"heb/internal/trace"
	"heb/internal/workload"
)

// Workload is a demand source for a prototype run: either a Table 1
// workload spec (generated on demand for the prototype's cluster size) or
// a pre-built utilization trace.
type Workload struct {
	spec     *workload.Spec
	tr       *trace.Trace
	duration time.Duration
}

// WorkloadFromSpec wraps a Table 1 spec; the trace is generated when the
// run starts, for the prototype's server count and seed.
func WorkloadFromSpec(s workload.Spec) Workload {
	return Workload{spec: &s, duration: 2 * time.Hour}
}

// WorkloadNamed resolves a Table 1 abbreviation (PR, WC, DA, WS, MS, DFS,
// HB, TS).
func WorkloadNamed(abbrev string) (Workload, error) {
	s, err := SpecNamed(abbrev)
	if err != nil {
		return Workload{}, err
	}
	return WorkloadFromSpec(s), nil
}

// SchemeNamed resolves a Table 2 scheme by the name its String method
// gives (BaOnly, BaFirst, SCFirst, HEB-F, HEB-S, HEB-D).
func SchemeNamed(name string) (SchemeID, error) {
	ids := AllSchemes()
	names := make([]string, len(ids))
	for i, id := range ids {
		if id.String() == name {
			return id, nil
		}
		names[i] = id.String()
	}
	return 0, fmt.Errorf("heb: unknown scheme %q (valid: %s)", name, strings.Join(names, ", "))
}

// SpecNamed resolves a Table 1 abbreviation to its raw generator spec
// (for APIs like CompareDeployments that need per-rack generation).
func SpecNamed(abbrev string) (workload.Spec, error) {
	return workload.ByAbbrev(abbrev)
}

// WorkloadFromTrace wraps a pre-built utilization trace.
func WorkloadFromTrace(tr *trace.Trace) Workload {
	return Workload{tr: tr}
}

// WithDuration sets the generated trace length (spec-backed workloads
// only; trace-backed workloads keep their own length and wrap).
func (w Workload) WithDuration(d time.Duration) Workload {
	w.duration = d
	return w
}

// Name returns the workload's label.
func (w Workload) Name() string {
	switch {
	case w.spec != nil:
		return w.spec.Abbrev
	case w.tr != nil:
		return w.tr.Name
	default:
		return "empty"
	}
}

// Class returns the peak-shape family for spec-backed workloads.
func (w Workload) Class() (workload.Class, bool) {
	if w.spec == nil {
		return 0, false
	}
	return w.spec.Class, true
}

// traceGenStep is the sample grid workload traces are generated at.
// Generating at a 10-second grid keeps memory modest; the engine's At()
// lookup interpolates by zero-order hold at its own step.
const traceGenStep = 10 * time.Second

// Trace materializes the utilization trace for the prototype. Generated
// traces are memoized in a shared concurrency-safe cache keyed on the
// full spec plus (seed, server count, duration, step), so a sweep that
// runs N schemes over the same workload synthesizes its trace once; the
// returned trace is shared and must be treated as read-only (the engine
// only reads it).
func (w Workload) Trace(p Prototype) (*trace.Trace, error) {
	if w.tr != nil {
		if w.tr.Servers() != p.NumServers {
			return nil, fmt.Errorf("heb: workload %q has %d servers, prototype has %d",
				w.tr.Name, w.tr.Servers(), p.NumServers)
		}
		return w.tr, nil
	}
	if w.spec == nil {
		return nil, fmt.Errorf("heb: empty workload")
	}
	d := w.duration
	if d <= 0 {
		d = 2 * time.Hour
	}
	key := traceKey{spec: *w.spec, seed: p.Seed, servers: p.NumServers, duration: d, step: traceGenStep}
	return sharedTraceCache.get(key, func() (*trace.Trace, error) {
		return w.spec.Generate(p.Seed, p.NumServers, d, traceGenStep)
	})
}

// EvaluationWorkloads returns the eight Table 1 workloads wrapped for
// prototype runs, in paper order.
func EvaluationWorkloads() []Workload {
	specs := workload.Catalog()
	out := make([]Workload, len(specs))
	for i, s := range specs {
		out[i] = WorkloadFromSpec(s)
	}
	return out
}

// Package obs is the observability layer of the HEB reproduction: a
// dependency-free metrics registry with Prometheus text exposition, a
// structured event log for the engine's discrete events (relay switches,
// sheds, pool handoffs, mismatch windows, PAT traffic), per-slot hControl
// decision records, and a deterministic multi-run capture that turns any
// sweep into diffable events.jsonl / decisions.jsonl / metrics.prom
// artifacts.
//
// The package stands in for the paper prototype's "system real-time
// running state monitoring" component (Figure 11, item 5), extended to the
// tracing substrate the evaluation itself is built from: every figure is a
// statement about observed time series, and every hControl choice should
// be replayable from its decision record.
//
// Metric naming follows heb_<subsystem>_<name>_<unit>; counters carry the
// conventional _total suffix.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// metricKind discriminates the family types.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// Registry holds metric families and exposes them in Prometheus text
// format. It is safe for concurrent use: getters return live instrument
// handles whose Inc/Add/Set/Observe methods are lock-free (counters and
// gauges) or briefly locked (histograms).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       metricKind
	bounds     []float64 // histogram upper bounds, sorted

	mu     sync.Mutex
	series map[string]any // rendered label string -> *Counter/*Gauge/*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical label string: names sorted, values
// escaped, e.g. `{position="battery",scheme="HEB-D"}`; empty for none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getFamily returns the named family, creating it on first use; a name
// reused with a different type or bucket layout is a programming error and
// panics.
func (r *Registry) getFamily(name, help string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			bounds: append([]float64(nil), bounds...),
			series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name + labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, counterKind, nil)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns the gauge for name + labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, gaugeKind, nil)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.series[key]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram returns the histogram for name + labels, creating it on first
// use with the given fixed upper bounds (sorted ascending; an implicit
// +Inf bucket is always appended).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	f := r.getFamily(name, help, histogramKind, sorted)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.series[key]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(f.bounds)
	f.series[key] = h
	return h
}

// Counter is a monotonically increasing value. The zero value is ready to
// use, but counters should be obtained from a Registry to be exported.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by v (negative allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; implicit +Inf appended
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshotLocked copies the histogram state.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// LinearBuckets returns count bounds starting at start, width apart.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Sample is one exported series value; histograms are flattened into
// _bucket/_sum/_count samples like the text exposition.
type Sample struct {
	// Name is the metric name (with _bucket/_sum/_count suffixes for
	// histogram components).
	Name string
	// Labels is the canonical rendered label string, "" when unlabeled.
	Labels string
	// Value is the sample value.
	Value float64
}

// Snapshot returns every series as a deterministic, sorted sample list —
// the comparison form tests assert against.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var out []Sample
	for _, f := range fams {
		for _, key := range f.sortedKeys() {
			f.mu.Lock()
			s := f.series[key]
			f.mu.Unlock()
			switch m := s.(type) {
			case *Counter:
				out = append(out, Sample{f.name, key, m.Value()})
			case *Gauge:
				out = append(out, Sample{f.name, key, m.Value()})
			case *Histogram:
				counts, sum, count := m.snapshot()
				cum := uint64(0)
				for i, b := range f.bounds {
					cum += counts[i]
					out = append(out, Sample{f.name + "_bucket", mergeLabels(key, "le", formatFloat(b)), float64(cum)})
				}
				cum += counts[len(f.bounds)]
				out = append(out, Sample{f.name + "_bucket", mergeLabels(key, "le", "+Inf"), float64(cum)})
				out = append(out, Sample{f.name + "_sum", key, sum})
				out = append(out, Sample{f.name + "_count", key, float64(count)})
			}
		}
	}
	return out
}

// Get returns the snapshot value of one series (histograms: use the
// flattened _sum/_count/_bucket names). ok is false when absent.
func (r *Registry) Get(name string, labels ...Label) (v float64, ok bool) {
	key := renderLabels(labels)
	for _, s := range r.Snapshot() {
		if s.Name == name && s.Labels == key {
			return s.Value, true
		}
	}
	return 0, false
}

func (f *family) sortedKeys() []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// mergeLabels inserts one extra label pair into an already-rendered label
// string, keeping name order.
func mergeLabels(rendered, name, value string) string {
	extra := name + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	// Insert in sorted position among the existing pairs.
	inner := rendered[1 : len(rendered)-1]
	parts := strings.Split(inner, ",")
	at := len(parts)
	for i, p := range parts {
		if name < p[:strings.IndexByte(p, '=')] {
			at = i
			break
		}
	}
	parts = append(parts[:at], append([]string{extra}, parts[at:]...)...)
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4). The output is deterministic: families sorted by name,
// series sorted by label string.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.sortedKeys() {
			f.mu.Lock()
			s := f.series[key]
			f.mu.Unlock()
			switch m := s.(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m.Value())); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m.Value())); err != nil {
					return err
				}
			case *Histogram:
				counts, sum, count := m.snapshot()
				cum := uint64(0)
				for i, b := range f.bounds {
					cum += counts[i]
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(key, "le", formatFloat(b)), cum); err != nil {
						return err
					}
				}
				cum += counts[len(f.bounds)]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(key, "le", "+Inf"), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, key, formatFloat(sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, key, count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the registry at its mount point (conventionally
// /metrics) in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

package main

import (
	"math"
	"runtime/metrics"
	"sync"

	"heb/internal/obs"
)

// runtimeMetrics exports the process's Go-runtime health, read from
// runtime/metrics (which, unlike runtime.ReadMemStats, never stops the
// world):
//
//	heb_proc_heap_alloc_bytes            gauge, heap bytes in objects
//	heb_proc_heap_objects                gauge, heap objects
//	heb_proc_goroutines                  gauge
//	heb_runtime_heap_goal_bytes          gauge, the pacer's current heap target
//	heb_runtime_gomaxprocs               gauge
//	heb_proc_gc_runs_total               counter, completed GC cycles
//	heb_runtime_gc_pause_seconds{q}      gauge, GC stop-the-world pause quantiles
//	heb_runtime_sched_latency_seconds{q} gauge, goroutine scheduling latency quantiles
//	heb_runtime_cpu_utilization          gauge, 0..1 non-idle share of GOMAXPROCS
//	                                     since the previous sample
//
// The runtime publishes pauses and latencies as histograms of all-time
// totals; obs.Histogram only ingests individual observations, so the
// distributions surface as quantile-labeled gauges instead. Values are
// pulled: the /metrics handler calls sample before every scrape.
type runtimeMetrics struct {
	gauges            []*obs.Gauge // one per runtimeGauges entry
	gcRuns            *obs.Counter
	gcPause, schedLat [len(runtimeQuantiles)]*obs.Gauge
	cpuUtil           *obs.Gauge

	mu       sync.Mutex
	samples  []metrics.Sample // runtimeGauges, then rmDerived
	lastGCs  uint64           // cumulative /gc/cycles/total:gc-cycles
	lastIdle float64          // cumulative /cpu/classes/idle:cpu-seconds
	lastAll  float64          // cumulative /cpu/classes/total:cpu-seconds
	primed   bool
}

// runtimeQuantiles are the points reported for each runtime histogram.
var runtimeQuantiles = [...]struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}}

// runtimeGauges are the KindUint64 runtime metrics published as is.
var runtimeGauges = []struct{ metric, series, help string }{
	{"/memory/classes/heap/objects:bytes", "heb_proc_heap_alloc_bytes", "Heap bytes occupied by objects."},
	{"/gc/heap/objects:objects", "heb_proc_heap_objects", "Heap objects."},
	{"/sched/goroutines:goroutines", "heb_proc_goroutines", "Goroutines currently running."},
	{"/gc/heap/goal:bytes", "heb_runtime_heap_goal_bytes", "GC pacer heap goal."},
	{"/sched/gomaxprocs:threads", "heb_runtime_gomaxprocs", "GOMAXPROCS at the latest sample."},
}

// rmDerived are the runtime metrics read after runtimeGauges, in the
// order sample unpacks them.
var rmDerived = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// newRuntimeMetrics registers the heb_proc_* and heb_runtime_* families
// on reg.
func newRuntimeMetrics(reg *obs.Registry) *runtimeMetrics {
	r := &runtimeMetrics{
		gcRuns: reg.Counter("heb_proc_gc_runs_total", "Completed garbage collection cycles."),
		cpuUtil: reg.Gauge("heb_runtime_cpu_utilization",
			"Non-idle share (0..1) of available CPU since the previous sample (/cpu/classes)."),
	}
	for _, g := range runtimeGauges {
		r.gauges = append(r.gauges, reg.Gauge(g.series, g.help+" ("+g.metric+")"))
		r.samples = append(r.samples, metrics.Sample{Name: g.metric})
	}
	for _, name := range rmDerived {
		r.samples = append(r.samples, metrics.Sample{Name: name})
	}
	for i, pt := range runtimeQuantiles {
		lbl := obs.Label{Name: "q", Value: pt.label}
		r.gcPause[i] = reg.Gauge("heb_runtime_gc_pause_seconds",
			"GC stop-the-world pause distribution quantiles (/sched/pauses/total/gc).", lbl)
		r.schedLat[i] = reg.Gauge("heb_runtime_sched_latency_seconds",
			"Goroutine scheduling latency distribution quantiles (/sched/latencies).", lbl)
	}
	return r
}

// sample refreshes every series from one runtime/metrics read. The read
// and the apply run under one mutex: were a stale reading applied after
// a fresher one, the GC-cycle delta would run backwards. The counter
// also only advances on a reading not lower than the last. A metric
// this Go release does not publish (another value kind) is skipped.
func (r *runtimeMetrics) sample() {
	r.mu.Lock()
	defer r.mu.Unlock()

	metrics.Read(r.samples)
	for i, g := range r.gauges {
		if v := r.samples[i].Value; v.Kind() == metrics.KindUint64 {
			g.Set(float64(v.Uint64()))
		}
	}
	d := r.samples[len(r.gauges):]
	cycles, pauses, latencies, idle, total := d[0].Value, d[1].Value, d[2].Value, d[3].Value, d[4].Value
	if cycles.Kind() == metrics.KindUint64 && cycles.Uint64() >= r.lastGCs {
		r.gcRuns.Add(float64(cycles.Uint64() - r.lastGCs))
		r.lastGCs = cycles.Uint64()
	}
	setHistogramQuantiles(&r.gcPause, pauses)
	setHistogramQuantiles(&r.schedLat, latencies)
	r.sampleCPU(idle, total)
}

// sampleCPU turns the cumulative /cpu/classes counters into a busy-share
// gauge over the window since the previous sample. Caller holds mu.
func (r *runtimeMetrics) sampleCPU(idleV, allV metrics.Value) {
	if idleV.Kind() != metrics.KindFloat64 || allV.Kind() != metrics.KindFloat64 {
		return
	}
	idle, all := idleV.Float64(), allV.Float64()
	dIdle, dAll := idle-r.lastIdle, all-r.lastAll
	r.lastIdle, r.lastAll = idle, all
	if !r.primed {
		// First sample covers process lifetime, not a scrape window.
		r.primed = true
		dIdle, dAll = idle, all
	}
	if dAll > 0 && dIdle >= 0 && dIdle <= dAll {
		r.cpuUtil.Set(1 - dIdle/dAll)
	}
}

// setHistogramQuantiles projects a runtime Float64Histogram onto the
// quantile gauges.
func setHistogramQuantiles(gauges *[len(runtimeQuantiles)]*obs.Gauge, v metrics.Value) {
	if v.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := v.Float64Histogram()
	for i, pt := range runtimeQuantiles {
		gauges[i].Set(histogramQuantile(h, pt.q))
	}
}

// histogramQuantile estimates quantile q from a runtime histogram: the
// lower bound of the first bucket whose cumulative count reaches
// q*total. Buckets[i], Buckets[i+1] bound Counts[i]; infinite edges
// collapse to the nearest finite boundary. Returns 0 for an empty
// histogram.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if !math.IsInf(lo, 0) {
				return lo
			}
			if !math.IsInf(hi, 0) {
				return hi
			}
			return 0
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

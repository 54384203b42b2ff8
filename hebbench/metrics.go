package main

import (
	"math"
	"sort"
)

// metric names one reported figure: its unit and which direction is an
// improvement. Bound is the share of the parent's median an end-to-end
// metric may worsen by before a change counts as a regression; per-layer
// metrics have none.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the figures a user of the simulator waits on, measured
// with tracing off. Every workload reports all of them.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"sim_steps_per_s", "steps/s", "higher", 0.2},
	{"cell_ms_p50", "ms", "lower", 0.2},
	{"cell_ms_tail", "ms", "lower", 0.25},
	{"resume_ms_p50", "ms", "lower", 0.25},
	{"capture_kb_per_sim_h", "KB/sim-h", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"paper_ee_err_pp", "pp", "lower", 0.1},
}

// perLayer are the traced run's figures, one or more per module. Layer
// costs come from replaying a recorded cell's inputs through the layer's
// public API; see README.md for which end-to-end metric each one moves.
var perLayer = []metric{
	{"workload.generate_ms", "ms", "lower", 0},
	{"trace.at_ns", "ns", "lower", 0},
	{"power.demand_ns_per_step", "ns", "lower", 0},
	{"power.relay_switches_per_kstep", "count", "lower", 0},
	{"power.replay_demand_drift", "frac", "lower", 0},
	{"esd.discharge_ns", "ns", "lower", 0},
	{"esd.charge_ns", "ns", "lower", 0},
	{"esd.ns_per_step", "ns", "lower", 0},
	{"esd.replay_soc_drift", "frac", "lower", 0},
	{"forecast.update_ns", "ns", "lower", 0},
	{"forecast.replay_drift_w", "W", "lower", 0},
	{"pat.seed_ms", "ms", "lower", 0},
	{"pat.seed_kept_ratio", "ratio", "higher", 0},
	{"pat.lookup_ns", "ns", "lower", 0},
	{"pat.miss_ratio", "ratio", "lower", 0},
	{"core.plan_us", "us", "lower", 0},
	{"core.finish_us", "us", "lower", 0},
	{"core.replay_drift", "frac", "lower", 0},
	{"sim.cell_ns_per_step", "ns", "lower", 0},
	{"sim.unattributed_ns_per_step", "ns", "lower", 0},
	{"sim.mismatch_frac", "frac", "lower", 0},
	{"heb.reuse_ratio", "ratio", "higher", 0},
	{"heb.fresh_cell_ms_p50", "ms", "lower", 0},
	{"heb.reused_cell_ms_p50", "ms", "lower", 0},
	{"heb.alloc_kb_per_cell", "KB", "lower", 0},
	{"heb.allocs_per_cell", "count", "lower", 0},
	{"runner.busy_frac", "frac", "higher", 0},
	{"runner.tail_idle_ms", "ms", "lower", 0},
	{"obs.ckpt_kb_per_record", "KB", "lower", 0},
	{"obs.ckpt_delta_share", "frac", "higher", 0},
	{"obs.read_ms", "ms", "lower", 0},
	{"obs.validate_ms", "ms", "lower", 0},
	{"obs.materialize_ms", "ms", "lower", 0},
	{"obs.write_files_ms", "ms", "lower", 0},
	{"obs.events_per_cell", "count", "lower", 0},
	{"obs.tap_capture_ns_per_step", "ns", "lower", 0},
	{"obs.tap_probes_ns_per_step", "ns", "lower", 0},
	{"obs.tap_audit_ns_per_step", "ns", "lower", 0},
	{"obs.tap_tracer_ns_per_step", "ns", "lower", 0},
	{"obs.tap_checkpoint_ns_per_step", "ns", "lower", 0},
	{"alerts.tap_ns_per_step", "ns", "lower", 0},
	{"runtime.gc_cpu_frac", "frac", "lower", 0},
	{"bench.trace_overhead_ms", "ms", "lower", 0},
	{"replay.diverged_layers", "count", "lower", 0},
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN for none. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs (the same
// definition as numpy's default); NaN for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, highest first. p99
// is not among them: over the 2000-odd cells of a 20-second sweep it is
// set by the twenty slowest, which the host's contention bursts pick, and
// it moved 13-26% between runs against 4% for p95.
var tailPercentiles = []int{95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer make the figure one or two outliers' value.
const minBeyond = 10

// tailPercentile is the highest candidate percentile with at least
// minBeyond of n samples beyond it; p50 when none has.
func tailPercentile(n int) int {
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// tail returns the pct-th percentile of xs and how many samples lie
// beyond it.
func tail(xs []float64, pct int) (value float64, beyond int) {
	return quantile(xs, float64(pct)/100), len(xs) * (100 - pct) / 100
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"heb/internal/obs"
	"heb/internal/obs/registry"
	"heb/internal/obs/registry/baseline"
)

// The watch subcommands are the regression sentinel over recorded runs.
// Populations are grouped per (scheme, workload) and located with
// median/MAD robust statistics (internal/obs/registry/baseline); a run
// whose metric sits WarnZ/CriticalZ robust z-scores from its cohort
// median is flagged, and a run whose own SLO alert verdict is unhealthy
// is escalated regardless of how unremarkable its metrics look.

// windowFlags registers the cohort-window flags score and diff share.
func windowFlags(fs *flag.FlagSet) (maxN, minN *int) {
	maxN = fs.Int("window", 0, "limit each baseline population to its last N runs (0 = all)")
	minN = fs.Int("min-cohort", 0, fmt.Sprintf("override the minimum population size (default %d)", baseline.MinCohort))
	return maxN, minN
}

// watchScoreCmd scores every complete run under root (or only -run)
// against its cohort; any critical verdict is a finding.
func watchScoreCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("watch score", flag.ExitOnError)
	maxN, minN := windowFlags(fs)
	runID := fs.String("run", "", "score only this run ID")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	return found(score(w, fs.Arg(0), *runID, baseline.Window{MaxN: *maxN, MinN: *minN}))
}

// watchDiffCmd scores tree B's cohort medians against tree A's
// populations; any critical drift is a finding.
func watchDiffCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("watch diff", flag.ExitOnError)
	maxN, minN := windowFlags(fs)
	if err := parse(fs, args, 2); err != nil {
		return err
	}
	return found(diff(w, fs.Arg(0), fs.Arg(1), baseline.Window{MaxN: *maxN, MinN: *minN}))
}

// watchBenchCmd checks benchmark drift between two BENCH_*.json files as
// written by scripts/bench.sh (the gate bench.sh -check runs): allocs/op
// must match exactly (allocation counts are deterministic) except for
// the MultiSeed*, EngineProf* and CaptureWriteFiles rows, which get
// ±allocSlack (sync.Pool clears and pprof sampling buffers wobble);
// ns/op may grow by at most -ns-tol. Profile baselines (BENCH_prof.json)
// go through prof check.
func watchBenchCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("watch bench", flag.ExitOnError)
	nsTol := fs.Float64("ns-tol", 1.5, "maximum allowed ns/op growth factor")
	if err := parse(fs, args, 2); err != nil {
		return err
	}
	return found(bench(w, fs.Arg(0), fs.Arg(1), *nsTol))
}

// scanComplete scans root and lists each complete, keyed run once, in
// registry order, so populations are deterministic for any scan.
func scanComplete(root string) (*registry.Registry, []registry.Run, error) {
	r := registry.New(root)
	if err := r.Scan(); err != nil {
		return nil, nil, err
	}
	var runs []registry.Run
	seen := map[string]bool{}
	for _, run := range r.Runs(registry.Filter{Status: obs.StatusComplete}) {
		if run.Key != "" && !seen[run.ID] {
			seen[run.ID] = true
			runs = append(runs, run)
		}
	}
	return r, runs, nil
}

// score scans root and classifies every complete run (or just runID)
// against its cohort; it returns the number of critical verdicts.
func score(w io.Writer, root, runID string, win baseline.Window) (int, error) {
	r, targets, err := scanComplete(root)
	if err != nil {
		return 0, err
	}
	if runID != "" {
		run, ok := r.Find(runID)
		if !ok {
			return 0, fmt.Errorf("unknown run %q under %s", runID, root)
		}
		targets = []registry.Run{run}
	}
	counts := map[string]int{}
	for _, run := range targets {
		sc, err := r.Score(run.ID, win)
		if err != nil {
			return 0, err
		}
		counts[sc.Verdict]++
		line := fmt.Sprintf("%s %-8s %-4s seed=%-3d cohort=%-3d verdict=%s",
			sc.Run.ID, sc.Run.Scheme, sc.Run.Workload, sc.Run.Seed, sc.Cohort, sc.Verdict)
		if sc.Health != "" {
			line += " health=" + sc.Health
		}
		if m, ok := worstMetric(sc); ok {
			line += fmt.Sprintf("  worst=%s z=%+.2f (%.6g vs median %.6g)", m.Name, m.Z, m.Value, m.Median)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "hebobs watch: %d runs scored: %d critical, %d warn, %d ok, %d unjudged\n",
		len(targets), counts[baseline.VerdictCritical], counts[baseline.VerdictWarn],
		counts[baseline.VerdictOK], counts[baseline.VerdictNoBaseline])
	return counts[baseline.VerdictCritical], nil
}

// worstMetric picks the scored metric with the largest |z| among those
// that had a baseline to judge against.
func worstMetric(sc registry.RunScore) (registry.MetricScore, bool) {
	best, found := registry.MetricScore{}, false
	for _, m := range sc.Metrics {
		if m.Verdict == baseline.VerdictNoBaseline {
			continue
		}
		if !found || math.Abs(m.Z) > math.Abs(best.Z) {
			best, found = m, true
		}
	}
	return best, found
}

// diff scores capture tree B's cohorts against tree A's; it returns the
// number of critical drifts.
func diff(w io.Writer, rootA, rootB string, win baseline.Window) (int, error) {
	va, err := cohortValues(rootA)
	if err != nil {
		return 0, err
	}
	vb, err := cohortValues(rootB)
	if err != nil {
		return 0, err
	}
	sorted := make([]string, 0, len(va)+len(vb))
	for k := range va {
		sorted = append(sorted, k)
	}
	for k := range vb {
		if _, ok := va[k]; !ok {
			sorted = append(sorted, k)
		}
	}
	sort.Strings(sorted)

	criticals, warns := 0, 0
	for _, k := range sorted {
		a, okA := va[k]
		b, okB := vb[k]
		if !okA || !okB {
			side := rootA
			if okB {
				side = rootB
			}
			fmt.Fprintf(w, "%s: only in %s\n", k, side)
			continue
		}
		sc := baseline.ScoreValue(baseline.Median(b), a, win)
		switch sc.Verdict {
		case baseline.VerdictCritical:
			criticals++
		case baseline.VerdictWarn:
			warns++
		default:
			continue
		}
		fmt.Fprintf(w, "%s: median %.6g -> %.6g z=%+.2f %s\n", k, sc.Median, sc.Value, sc.Z, sc.Verdict)
	}
	fmt.Fprintf(w, "hebobs watch: %d cohort metrics compared: %d critical, %d warn\n",
		len(sorted), criticals, warns)
	return criticals, nil
}

// cohortValues gathers every complete run's metrics under root, keyed
// "scheme|workload|metric".
func cohortValues(root string) (map[string][]float64, error) {
	_, runs, err := scanComplete(root)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, run := range runs {
		for name, v := range run.Summary.Metrics {
			k := run.Scheme + "|" + run.Workload + "|" + name
			out[k] = append(out[k], v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no complete runs under %s", root)
	}
	return out, nil
}

// benchRow is one row of the JSON scripts/bench.sh writes; null columns
// stay nil.
type benchRow struct {
	Name   string   `json:"name"`
	Ns     *float64 `json:"ns_per_op"`
	Allocs *float64 `json:"allocs_per_op"`
}

// allocSlack is the absolute allocs/op tolerance for benchmarks whose
// counts are not deterministic: the multi-seed pair's pooled run state
// rides sync.Pools the GC may clear mid-run, as do encoding/json's
// encoder states in the CaptureWriteFiles row, and the EngineProf rows'
// runtime/pprof sampling buffers grow with the sample count.
const allocSlack = 8

// allocTolerance is the allowed |allocs/op - baseline| for a benchmark.
func allocTolerance(name string) float64 {
	if strings.Contains(name, "MultiSeed") || strings.Contains(name, "EngineProf") ||
		strings.Contains(name, "CaptureWriteFiles") {
		return allocSlack
	}
	return 0
}

// bench compares two bench.sh JSON files: allocs/op exact (within
// allocTolerance), ns/op within nsTol×. Every violation is critical.
func bench(w io.Writer, curPath, basePath string, nsTol float64) (int, error) {
	cur, err := loadBench(curPath)
	if err != nil {
		return 0, err
	}
	base, err := loadBench(basePath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	criticals := 0
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "%s: in baseline but not measured\n", name)
			criticals++
			continue
		}
		if b.Allocs != nil && c.Allocs != nil {
			if slack := allocTolerance(name); math.Abs(*c.Allocs-*b.Allocs) > slack {
				if slack > 0 {
					fmt.Fprintf(w, "%s: allocs/op %g, baseline %g (pool-wobble slack is ±%g)\n", name, *c.Allocs, *b.Allocs, slack)
				} else {
					fmt.Fprintf(w, "%s: allocs/op %g, baseline %g (must match exactly)\n", name, *c.Allocs, *b.Allocs)
				}
				criticals++
			}
		}
		if b.Ns != nil && c.Ns != nil && *b.Ns > 0 && *c.Ns > *b.Ns*nsTol {
			fmt.Fprintf(w, "%s: ns/op %g exceeds baseline %g by more than %gx\n", name, *c.Ns, *b.Ns, nsTol)
			criticals++
		}
	}
	verdict := "within tolerance"
	if criticals > 0 {
		verdict = "REGRESSED"
	}
	fmt.Fprintf(w, "hebobs watch: %d benchmarks vs %s: %s (%d findings, allocs exact or ±%d pool slack, ns/op <= %gx)\n",
		len(names), basePath, verdict, criticals, allocSlack, nsTol)
	return criticals, nil
}

func loadBench(path string) (map[string]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Benchmarks []benchRow `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	out := make(map[string]benchRow, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		if strings.TrimSpace(b.Name) == "" {
			return nil, fmt.Errorf("%s: benchmark with empty name", path)
		}
		out[b.Name] = b
	}
	return out, nil
}
